#include "apps/opt/exemplars.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace cpe::opt {

namespace {

constexpr auto kDim = static_cast<std::size_t>(kInputDim);

/// Class centers on a coarse deterministic grid, each coordinate in
/// [-1, ~0.85]; row c is class c's center.
constexpr std::array<double, kClasses * kInputDim> kCenters = [] {
  std::array<double, kClasses * kInputDim> centers{};
  for (int c = 0; c < kClasses; ++c)
    for (int d = 0; d < kInputDim; ++d)
      centers[static_cast<std::size_t>(c * kInputDim + d)] =
          ((c * 31 + d * 7) % 13) / 6.5 - 1.0;
  return centers;
}();

constexpr double kClusterSigma = 0.25;

/// One exemplar's term of checksum(): FNV-1a over the features' bit
/// patterns, then the category.
struct ExemplarHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint32_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(float f) { mix(std::bit_cast<std::uint32_t>(f)); }
};

}  // namespace

ExemplarSet ExemplarSet::synthesize(std::size_t n, sim::Rng& rng) {
  ExemplarSet set;
  set.wire_.resize(n * kStride);
  set.processed_.assign(n, 0);
  set.unprocessed_ = n;

  // Cluster noise on top of the class center, written in wire layout.  Each
  // exemplar is hashed for checksum() while it is still in L1, after its
  // draws: mixing inside the draw loop lengthens that loop's dependency
  // chain (43.5 against 39.3 ms for a 20.8 MB set, GCC 12 -O3, Xeon VM).
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = rng.below(kClasses);
    const double* center = kCenters.data() + c * kDim;
    float* e = set.wire_.data() + i * kStride;
    for (std::size_t d = 0; d < kDim; ++d)
      e[d] = static_cast<float>(center[d] +
                                kClusterSigma * rng.normal_ziggurat());
    e[kDim] = static_cast<float>(c);
    ExemplarHash h;
    for (std::size_t d = 0; d < kDim; ++d) h.mix(e[d]);
    h.mix(static_cast<std::uint32_t>(c));
    sum += h.h;
  }
  set.checksum_ = sum;
  return set;
}

void ExemplarSet::recount_flags() {
  unprocessed_ = static_cast<std::size_t>(
      std::count(processed_.begin(), processed_.end(), std::uint8_t{0}));
  first_unprocessed_ = static_cast<std::size_t>(
      std::find(processed_.begin(), processed_.end(), std::uint8_t{0}) -
      processed_.begin());
}

ExemplarSet ExemplarSet::take_back(std::size_t count) {
  CPE_EXPECTS(count <= size());
  const std::size_t keep = size() - count;
  ExemplarSet out;
  out.wire_.assign(wire_.begin() + static_cast<std::ptrdiff_t>(keep * kStride),
                   wire_.end());
  out.processed_.assign(processed_.begin() + static_cast<std::ptrdiff_t>(keep),
                        processed_.end());
  out.recount_flags();
  wire_.resize(keep * kStride);
  processed_.resize(keep);
  unprocessed_ -= out.unprocessed_;
  first_unprocessed_ = std::min(first_unprocessed_, keep);
  checksum_.reset();
  return out;
}

void ExemplarSet::append(const ExemplarSet& other) {
  // All of this set processed: the first unprocessed exemplar, if any, is
  // the other set's.
  if (first_unprocessed_ == size())
    first_unprocessed_ += other.first_unprocessed_;
  unprocessed_ += other.unprocessed_;
  // The checksum is a sum over exemplars, so known parts add up.
  if (checksum_ && other.checksum_)
    *checksum_ += *other.checksum_;
  else
    checksum_.reset();
  wire_.insert(wire_.end(), other.wire_.begin(), other.wire_.end());
  processed_.insert(processed_.end(), other.processed_.begin(),
                    other.processed_.end());
}

ExemplarSet ExemplarSet::from_wire(Wire&& wire) {
  CPE_EXPECTS(wire.size() % kStride == 0);
  ExemplarSet set;
  set.wire_ = std::move(wire);
  set.processed_.assign(set.wire_.size() / kStride, 0);
  set.unprocessed_ = set.processed_.size();
  return set;
}

std::uint64_t ExemplarSet::checksum() const {
  if (checksum_) return *checksum_;
  // Order-insensitive: sum of per-exemplar FNV hashes.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    ExemplarHash h;
    for (float f : features(i)) h.mix(f);
    h.mix(static_cast<std::uint32_t>(category(i)));
    sum += h.h;
  }
  checksum_ = sum;
  return sum;
}

}  // namespace cpe::opt
