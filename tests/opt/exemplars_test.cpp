#include "apps/opt/exemplars.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

namespace cpe::opt {
namespace {

/// checksum() recomputed from the wire image: the sum over exemplars of
/// FNV-1a over the 64 feature bit patterns, then the category.
std::uint64_t fnv_recomputed(const ExemplarSet& s) {
  const std::span<const float> wire = s.to_wire();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const float* e = wire.data() + i * ExemplarSet::kStride;
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t d = 0; d < ExemplarSet::kStride; ++d) {
      h ^= d < kInputDim ? std::bit_cast<std::uint32_t>(e[d])
                         : static_cast<std::uint32_t>(e[d]);
      h *= 1099511628211ull;
    }
    sum += h;
  }
  return sum;
}

TEST(ExemplarSet, SynthesizeSizes) {
  sim::Rng rng(1);
  ExemplarSet s = ExemplarSet::synthesize(100, rng);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.bytes(), 100u * 260);
  EXPECT_EQ(s.features(0).size(), 64u);
}

TEST(ExemplarSet, SynthesizeBytesRoundsDown) {
  sim::Rng rng(1);
  ExemplarSet s = ExemplarSet::synthesize_bytes(600'000, rng);
  EXPECT_EQ(s.size(), 600'000u / 260);
}

TEST(ExemplarSet, CategoriesInRange) {
  sim::Rng rng(2);
  ExemplarSet s = ExemplarSet::synthesize(1000, rng);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s.category(i), 0);
    EXPECT_LT(s.category(i), kClasses);
  }
}

TEST(ExemplarSet, WireRoundTrip) {
  sim::Rng rng(3);
  ExemplarSet s = ExemplarSet::synthesize(50, rng);
  ExemplarSet back = ExemplarSet::from_wire(s.to_wire());
  EXPECT_EQ(back.size(), s.size());
  EXPECT_EQ(back.checksum(), s.checksum());
}

TEST(ExemplarSet, ChecksumIsOrderInsensitive) {
  sim::Rng rng(4);
  ExemplarSet s = ExemplarSet::synthesize(40, rng);
  const std::uint64_t before = s.checksum();
  ExemplarSet tail = s.take_back(15);
  // Reassemble in a different order.
  ExemplarSet reordered = std::move(tail);
  reordered.append(s);
  EXPECT_EQ(reordered.checksum(), before);
}

TEST(ExemplarSet, ChecksumDetectsLoss) {
  sim::Rng rng(5);
  ExemplarSet s = ExemplarSet::synthesize(40, rng);
  const std::uint64_t before = s.checksum();
  (void)s.take_back(1);
  EXPECT_NE(s.checksum(), before);
}

TEST(ExemplarSet, TakeBackMovesFlags) {
  sim::Rng rng(6);
  ExemplarSet s = ExemplarSet::synthesize(10, rng);
  s.mark_processed(9);
  s.mark_processed(8);
  ExemplarSet tail = s.take_back(3);  // indices 7, 8, 9
  EXPECT_FALSE(tail.processed(0));
  EXPECT_TRUE(tail.processed(1));
  EXPECT_TRUE(tail.processed(2));
  EXPECT_EQ(s.size(), 7u);
  EXPECT_EQ(s.unprocessed_count(), 7u);
}

TEST(ExemplarSet, SplitConservesEverything) {
  // A master packs each slave's share as a window of the wire image.
  sim::Rng rng(7);
  const ExemplarSet s = ExemplarSet::synthesize(101, rng);
  const std::size_t shares[] = {34, 34, 33};
  std::uint64_t sum_after = 0;
  std::size_t first = 0;
  for (const std::size_t count : shares) {
    const std::span<const float> window = s.to_wire(first, count);
    EXPECT_EQ(window.data(), s.features(first).data());  // a view, no copy
    const ExemplarSet part = ExemplarSet::from_wire(window);
    ASSERT_EQ(part.size(), count);
    EXPECT_EQ(part.category(count - 1), s.category(first + count - 1));
    sum_after += part.checksum();
    first += count;
  }
  EXPECT_EQ(first, s.size());
  EXPECT_EQ(sum_after, s.checksum());  // checksums are additive
  EXPECT_THROW((void)s.to_wire(100, 2), ContractError);
}

TEST(ExemplarSet, ProcessedFlagsLifecycle) {
  sim::Rng rng(8);
  ExemplarSet s = ExemplarSet::synthesize(5, rng);
  EXPECT_EQ(s.unprocessed_count(), 5u);
  s.mark_processed(2);
  EXPECT_EQ(s.unprocessed_count(), 4u);
  EXPECT_TRUE(s.processed(2));
  s.reset_processed();
  EXPECT_EQ(s.unprocessed_count(), 5u);
}

TEST(ExemplarSet, FlagsImageRoundTrip) {
  sim::Rng rng(9);
  ExemplarSet s = ExemplarSet::synthesize(6, rng);
  s.mark_processed(1);
  s.mark_processed(4);
  const std::vector<std::uint8_t> img = s.flags_image();
  ExemplarSet copy = ExemplarSet::from_wire(s.to_wire());
  copy.load_flags(img);
  EXPECT_TRUE(copy.processed(1));
  EXPECT_TRUE(copy.processed(4));
  EXPECT_FALSE(copy.processed(0));
  EXPECT_EQ(copy.unprocessed_count(), 4u);
}

TEST(ExemplarSet, DeterministicPerSeed) {
  sim::Rng a(42), b(42), c(43);
  EXPECT_EQ(ExemplarSet::synthesize(30, a).checksum(),
            ExemplarSet::synthesize(30, b).checksum());
  EXPECT_NE(ExemplarSet::synthesize(30, a).checksum(),
            ExemplarSet::synthesize(30, c).checksum());
}

TEST(ExemplarSet, ClassClustersHaveTheirCentersAndSigma) {
  sim::Rng rng(31);
  const ExemplarSet s = ExemplarSet::synthesize(20'000, rng);
  constexpr std::size_t kDim = kInputDim;
  std::vector<double> sum(kClasses * kDim), sq(kClasses * kDim);
  std::vector<std::size_t> count(kClasses);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<std::size_t>(s.category(i));
    ++count[c];
    for (std::size_t d = 0; d < kDim; ++d) {
      const double x = s.features(i)[d];
      sum[c * kDim + d] += x;
      sq[c * kDim + d] += x * x;
    }
  }
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto n = static_cast<double>(count[c]);
    ASSERT_GT(n, 1000.0) << "class " << c;
    // 5 sigma for the mean and the sample sd of n draws of N(center, 0.25).
    const double mean_tol = 5.0 * 0.25 / std::sqrt(n);
    const double sd_tol = 5.0 * 0.25 / std::sqrt(2.0 * n);
    for (std::size_t d = 0; d < kDim; ++d) {
      const double center =
          static_cast<double>((c * 31 + d * 7) % 13) / 6.5 - 1.0;
      const double mean = sum[c * kDim + d] / n;
      const double sd = std::sqrt(sq[c * kDim + d] / n - mean * mean);
      EXPECT_NEAR(mean, center, mean_tol) << "class " << c << " dim " << d;
      EXPECT_NEAR(sd, 0.25, sd_tol) << "class " << c << " dim " << d;
    }
  }
}

TEST(ExemplarSet, SynthesizedContentIsPinned) {
  // Nothing in virtual time reads exemplar values, so this pin is what
  // makes a generator change deliberate.
  sim::Rng rng(7);
  EXPECT_EQ(ExemplarSet::synthesize(1000, rng).checksum(),
            2998131900894430690ull);
}

TEST(ExemplarSet, StoredLayoutIsTheWireImage) {
  sim::Rng rng(11);
  const ExemplarSet s = ExemplarSet::synthesize(20, rng);
  const std::span<const float> wire = s.to_wire();
  ASSERT_EQ(wire.size(), s.size() * ExemplarSet::kStride);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(wire.data() + i * ExemplarSet::kStride, s.features(i).data());
    EXPECT_EQ(wire[i * ExemplarSet::kStride + kInputDim],
              static_cast<float>(s.category(i)));
  }
}

TEST(ExemplarSet, FromWireAdoptsTheVector) {
  sim::Rng rng(12);
  const ExemplarSet s = ExemplarSet::synthesize(9, rng);
  ExemplarSet::Wire wire(s.to_wire().begin(), s.to_wire().end());
  const float* storage = wire.data();
  const ExemplarSet back = ExemplarSet::from_wire(std::move(wire));
  EXPECT_EQ(back.to_wire().data(), storage);
  EXPECT_EQ(back.checksum(), s.checksum());
  EXPECT_EQ(back.unprocessed_count(), 9u);
}

TEST(ExemplarSet, RememberedChecksumEqualsTheRecomputation) {
  sim::Rng rng(13);
  ExemplarSet s = ExemplarSet::synthesize(200, rng);
  EXPECT_EQ(s.checksum(), fnv_recomputed(s));  // computed by synthesize
  ExemplarSet tail = s.take_back(70);
  EXPECT_EQ(s.checksum(), fnv_recomputed(s));
  EXPECT_EQ(tail.checksum(), fnv_recomputed(tail));
  ExemplarSet more = ExemplarSet::synthesize(30, rng);
  tail.append(more);  // both checksums known: they add
  EXPECT_EQ(tail.checksum(), fnv_recomputed(tail));
  ExemplarSet adopted = ExemplarSet::from_wire(s.to_wire());
  adopted.append(tail);  // one unknown: recomputed on demand
  EXPECT_EQ(adopted.size(), 230u);
  EXPECT_EQ(adopted.checksum(), fnv_recomputed(adopted));
}

TEST(ExemplarSet, AppendAccumulates) {
  sim::Rng rng(10);
  ExemplarSet a = ExemplarSet::synthesize(10, rng);
  ExemplarSet b = ExemplarSet::synthesize(7, rng);
  const std::uint64_t expect = a.checksum() + b.checksum();
  a.append(b);
  EXPECT_EQ(a.size(), 17u);
  EXPECT_EQ(a.checksum(), expect);
}

}  // namespace
}  // namespace cpe::opt
