#include "apps/opt/exemplars.hpp"

#include <algorithm>
#include <array>

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

}  // namespace

ExemplarSet ExemplarSet::synthesize(std::size_t n, sim::Rng& rng) {
  static_assert(kInputDim % 2 == 0, "features are drawn in normal pairs");
  ExemplarSet set;
  set.wire_.resize(n * kStride);
  set.processed_.assign(n, 0);
  set.unprocessed_ = n;

  // Cluster noise on top of the class center, written in wire layout.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = rng.below(kClasses);
    const double* center = kCenters.data() + c * kDim;
    float* e = set.wire_.data() + i * kStride;
    for (std::size_t d = 0; d < kDim; d += 2) {
      const auto [z0, z1] = rng.normal_pair();
      e[d] = static_cast<float>(center[d] + kClusterSigma * z0);
      e[d + 1] = static_cast<float>(center[d + 1] + kClusterSigma * z1);
    }
    e[kDim] = static_cast<float>(c);
  }
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
  return out;
}

void ExemplarSet::append(const ExemplarSet& other) {
  // All of this set processed: the first unprocessed exemplar, if any, is
  // the other set's.
  if (first_unprocessed_ == size())
    first_unprocessed_ += other.first_unprocessed_;
  unprocessed_ += other.unprocessed_;
  wire_.insert(wire_.end(), other.wire_.begin(), other.wire_.end());
  processed_.insert(processed_.end(), other.processed_.begin(),
                    other.processed_.end());
}

std::vector<ExemplarSet> ExemplarSet::split(
    std::span<const std::size_t> shares) {
  std::size_t total = 0;
  for (std::size_t s : shares) total += s;
  CPE_EXPECTS(total == size());
  std::vector<ExemplarSet> out;
  // take_back pulls from the end; reverse order keeps shares[0] first.
  for (std::size_t k = shares.size(); k-- > 0;)
    out.push_back(take_back(shares[k]));
  std::reverse(out.begin(), out.end());
  *this = ExemplarSet();  // emptied by now; give its capacity back
  return out;
}

ExemplarSet ExemplarSet::from_wire(std::vector<float>&& wire) {
  CPE_EXPECTS(wire.size() % kStride == 0);
  ExemplarSet set;
  set.wire_ = std::move(wire);
  set.processed_.assign(set.wire_.size() / kStride, 0);
  set.unprocessed_ = set.processed_.size();
  return set;
}

std::uint64_t ExemplarSet::checksum() const {
  // Order-insensitive: sum of per-exemplar FNV hashes.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint32_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (float f : features(i)) {
      std::uint32_t bits;
      static_assert(sizeof bits == sizeof f);
      __builtin_memcpy(&bits, &f, sizeof bits);
      mix(bits);
    }
    mix(static_cast<std::uint32_t>(category(i)));
    sum += h;
  }
  return sum;
}

}  // namespace cpe::opt
