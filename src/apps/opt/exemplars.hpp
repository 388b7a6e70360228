// Training data for Opt, the neural-network speech classifier used in the
// paper's evaluation (§4.0).
//
// The paper's sets are proprietary digitized-speech exemplars: float feature
// vectors, each carrying its category as a scalar.  We synthesize the same
// structure — Gaussian class clusters in feature space — at the paper's data
// sizes (0.6 to 20.8 MB; 9 MB for the quiet-case runs).  The vectors are
// real data: they are packed into PVM messages byte-for-byte, moved by ADM
// redistribution, and (at small scale) actually trained on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "calib/costs.hpp"
#include "sim/random.hpp"
#include "sim/uninit_alloc.hpp"

namespace cpe::opt {

inline constexpr int kInputDim = 64;   ///< features per exemplar
inline constexpr int kClasses = 16;    ///< speech categories

class ExemplarSet {
 public:
  /// Floats per exemplar in the stored (and wire) layout: the features,
  /// then the category.
  static constexpr std::size_t kStride = calib::OptWorkload::exemplar_floats;
  static_assert(kStride == static_cast<std::size_t>(kInputDim) + 1);
  /// Storage for a wire image.  Its sized constructor and resize() leave
  /// the floats uninitialized: synthesize() and every receiver that unpacks
  /// a share overwrite them all at once, so zero-filling first is waste.
  using Wire = sim::UninitVector<float>;

  ExemplarSet() = default;
  ExemplarSet(const ExemplarSet&) = default;
  ExemplarSet& operator=(const ExemplarSet&) = default;
  /// A moved-from set is empty, its flag bookkeeping and checksum included.
  ExemplarSet(ExemplarSet&& other) noexcept
      : wire_(std::move(other.wire_)),
        processed_(std::move(other.processed_)),
        unprocessed_(std::exchange(other.unprocessed_, 0)),
        first_unprocessed_(std::exchange(other.first_unprocessed_, 0)),
        checksum_(std::exchange(other.checksum_, std::nullopt)) {}
  ExemplarSet& operator=(ExemplarSet&& other) noexcept {
    wire_ = std::move(other.wire_);
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

  [[nodiscard]] std::span<const float> features(std::size_t i) const {
    CPE_EXPECTS(i < size());
    return {wire_.data() + i * kStride, kInputDim};
  }
  [[nodiscard]] int category(std::size_t i) const {
    CPE_EXPECTS(i < size());
    return static_cast<int>(wire_[i * kStride + kInputDim]);
  }

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

  /// The raw flag array, for shipping flags along with moved exemplars.
  [[nodiscard]] const std::vector<std::uint8_t>& flags_image() const noexcept {
    return processed_;
  }
  void load_flags(std::span<const std::uint8_t> flags) {
    CPE_EXPECTS(flags.size() == size());
    processed_.assign(flags.begin(), flags.end());
    recount_flags();
  }

  // -- Redistribution primitives ---------------------------------------------
  /// Remove `count` exemplars from the back (flags travel with them).  ADM
  /// need not preserve ordering (§4.3), so taking from the back is fine.
  [[nodiscard]] ExemplarSet take_back(std::size_t count);
  /// Append another set's exemplars (a receiving slave integrating data).
  void append(const ExemplarSet& other);

  // -- Wire form ---------------------------------------------------------------
  /// Flat float image: 65 floats per exemplar (64 features + category), the
  /// form Opt packs into PVM messages.  It is the stored layout, so this is
  /// a view, valid until the set changes.
  [[nodiscard]] std::span<const float> to_wire() const noexcept {
    return wire_;
  }
  /// The wire image of exemplars [first, first + count): what a master
  /// packs for one slave's share, without copying it out first.
  [[nodiscard]] std::span<const float> to_wire(std::size_t first,
                                               std::size_t count) const {
    CPE_EXPECTS(first <= size() && count <= size() - first);
    return to_wire().subspan(first * kStride, count * kStride);
  }
  /// Build a set from a wire image, all flags clear.  The Wire overload
  /// adopts the unpacked image instead of copying it.
  static ExemplarSet from_wire(std::span<const float> wire) {
    return from_wire(Wire(wire.begin(), wire.end()));
  }
  static ExemplarSet from_wire(Wire&& wire);

  /// Order-insensitive content hash: redistribution must conserve the
  /// multiset of exemplars (DESIGN.md invariant 6).  Flags excluded.
  /// Remembered once computed; take_back() forgets it, append() adds the
  /// other set's when both are known.
  [[nodiscard]] std::uint64_t checksum() const;

 private:
  /// Recompute the unprocessed count and first unprocessed index from the
  /// flag array.
  void recount_flags();

  Wire wire_;                            // size * kStride, wire layout
  std::vector<std::uint8_t> processed_;  // size
  std::size_t unprocessed_ = 0;
  std::size_t first_unprocessed_ = 0;
  mutable std::optional<std::uint64_t> checksum_;
};

}  // namespace cpe::opt
