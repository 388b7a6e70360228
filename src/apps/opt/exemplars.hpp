// Training data for Opt, the neural-network speech classifier used in the
// paper's evaluation (§4.0).
//
// The paper's sets are proprietary digitized-speech exemplars: float feature
// vectors, each carrying its category as a scalar.  We synthesize the same
// structure — Gaussian class clusters in feature space — at the paper's data
// sizes (0.6 to 20.8 MB; 9 MB for the quiet-case runs).  The vectors are
// real data: they travel in PVM messages byte for byte, are moved by ADM
// redistribution, and (at small scale) are actually trained on.
//
// A set holds its exemplars as they travel: the XDR (big-endian) wire image,
// 260 B per exemplar, kept in a short list of shared, immutable segments.
// A master packs a share by reference to its segment, a slave adopts the
// bytes it unpacks, and take_back() and append() split and splice segments,
// so no exemplar is copied after synthesize() writes it — except that
// image() concatenates a range that spans segments into one new block.
// features(), category() and checksum() decode on read.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "calib/costs.hpp"
#include "pvm/buffer.hpp"
#include "sim/random.hpp"

namespace cpe::opt {

inline constexpr int kInputDim = 64;   ///< features per exemplar
inline constexpr int kClasses = 16;    ///< speech categories

class ExemplarSet {
 public:
  /// Floats per exemplar in the wire layout: the features, then the
  /// category.
  static constexpr std::size_t kStride = calib::OptWorkload::exemplar_floats;
  static_assert(kStride == static_cast<std::size_t>(kInputDim) + 1);
  using Features = std::array<float, kInputDim>;

  ExemplarSet() = default;
  ExemplarSet(const ExemplarSet&) = default;
  ExemplarSet& operator=(const ExemplarSet&) = default;
  /// A moved-from set is empty, its flag bookkeeping and checksum included.
  ExemplarSet(ExemplarSet&& other) noexcept
      : segs_(std::move(other.segs_)),
        processed_(std::move(other.processed_)),
        unprocessed_(std::exchange(other.unprocessed_, 0)),
        first_unprocessed_(std::exchange(other.first_unprocessed_, 0)),
        checksum_(std::exchange(other.checksum_, std::nullopt)) {}
  ExemplarSet& operator=(ExemplarSet&& other) noexcept {
    segs_ = std::move(other.segs_);
    processed_ = std::move(other.processed_);
    unprocessed_ = std::exchange(other.unprocessed_, 0);
    first_unprocessed_ = std::exchange(other.first_unprocessed_, 0);
    checksum_ = std::exchange(other.checksum_, std::nullopt);
    return *this;
  }

  /// Synthesize `n` exemplars: class c is a Gaussian cluster (sigma 0.25)
  /// around a deterministic per-class center.  The checksum is computed as
  /// each exemplar is written.
  static ExemplarSet synthesize(std::size_t n, sim::Rng& rng);

  /// Synthesize the paper's "data size" in bytes (rounded down to whole
  /// exemplars; 260 B each).
  static ExemplarSet synthesize_bytes(std::size_t bytes, sim::Rng& rng) {
    return synthesize(bytes / calib::OptWorkload::exemplar_bytes, rng);
  }

  [[nodiscard]] std::size_t size() const noexcept { return processed_.size(); }
  [[nodiscard]] bool empty() const noexcept { return processed_.empty(); }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return size() * calib::OptWorkload::exemplar_bytes;
  }

  /// Exemplar i's features and category, decoded from the wire image.
  [[nodiscard]] Features features(std::size_t i) const;
  [[nodiscard]] int category(std::size_t i) const;

  // -- Processed flags (ADM §4.3.1) -----------------------------------------
  /// The flag array ADMopt maintains so reshuffled exemplars are never
  /// reprocessed within an epoch.  The set also keeps the unprocessed count
  /// and the first unprocessed index current, so an inner-loop chunk costs
  /// O(chunk) instead of a scan of the whole slice.
  [[nodiscard]] bool processed(std::size_t i) const {
    CPE_EXPECTS(i < size());
    return processed_[i] != 0;
  }
  void mark_processed(std::size_t i) {
    CPE_EXPECTS(i < size());
    if (processed_[i] != 0) return;
    processed_[i] = 1;
    --unprocessed_;
    while (first_unprocessed_ < size() && processed_[first_unprocessed_] != 0)
      ++first_unprocessed_;
  }
  void reset_processed() {
    std::fill(processed_.begin(), processed_.end(), std::uint8_t{0});
    unprocessed_ = size();
    first_unprocessed_ = 0;
  }
  [[nodiscard]] std::size_t unprocessed_count() const noexcept {
    return unprocessed_;
  }
  /// Index of the first unprocessed exemplar (size() when none is left):
  /// every exemplar before it is processed.
  [[nodiscard]] std::size_t first_unprocessed() const noexcept {
    return first_unprocessed_;
  }

  /// The raw flag array, for shipping flags along with moved exemplars
  /// (a receiver adopts them with the image).
  [[nodiscard]] const std::vector<std::uint8_t>& flags_image() const noexcept {
    return processed_;
  }

  // -- Redistribution primitives ---------------------------------------------
  /// Remove `count` exemplars from the back (flags travel with them).  ADM
  /// need not preserve ordering (§4.3), so taking from the back is fine.
  /// Splits segments; no exemplar bytes are copied.
  [[nodiscard]] ExemplarSet take_back(std::size_t count);
  /// Append another set's exemplars (a receiving slave integrating data),
  /// sharing its segments.
  void append(const ExemplarSet& other);

  // -- Wire image ------------------------------------------------------------
  /// The XDR wire image of exemplars [first, first + count): 65 big-endian
  /// floats per exemplar (64 features, then the category), what Opt packs
  /// into PVM messages with Buffer::pk_float_image.  A view that shares the
  /// set's segment when the range lies in one; a range that spans segments
  /// is concatenated into a new block, the one byte copy on Opt's data path.
  [[nodiscard]] pvm::SharedBytes image(std::size_t first,
                                       std::size_t count) const;
  [[nodiscard]] pvm::SharedBytes image() const { return image(0, size()); }
  /// A set over a wire image (a whole number of exemplars), sharing its
  /// bytes: what a receiver builds from Buffer::upk_float_image.  Flags
  /// clear, or the given ones (one per exemplar).
  static ExemplarSet adopt(pvm::SharedBytes image);
  static ExemplarSet adopt(pvm::SharedBytes image,
                           std::vector<std::uint8_t> flags);

  /// Order-insensitive content hash: redistribution must conserve the
  /// multiset of exemplars (DESIGN.md invariant 6).  Flags excluded.
  /// Remembered once computed; take_back() forgets it, append() adds the
  /// other set's when both are known.
  [[nodiscard]] std::uint64_t checksum() const;

 private:
  /// Recompute the unprocessed count and first unprocessed index from the
  /// flag array.
  void recount_flags();
  /// Exemplar i's 260 wire bytes.
  [[nodiscard]] const std::byte* at(std::size_t i) const;

  /// The wire image in order, each segment a whole number of exemplars and
  /// none empty.
  std::vector<pvm::SharedBytes> segs_;
  std::vector<std::uint8_t> processed_;  // size
  std::size_t unprocessed_ = 0;
  std::size_t first_unprocessed_ = 0;
  mutable std::optional<std::uint64_t> checksum_;
};

}  // namespace cpe::opt
