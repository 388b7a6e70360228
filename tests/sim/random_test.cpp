#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cpe::sim {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(3.0, 5.5);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanNearOneHalf) {
  Rng r(99);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRangeAndIsRoughlyUniform) {
  Rng r(42);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, NormalValuesArePinned) {
  // Box-Muller draws feed Opt's initial network weights, and through them
  // every net checksum and perfbench digest: they must not drift.
  Rng r(2024);
  EXPECT_EQ(r.normal(), 0.48134687406176407);
  EXPECT_EQ(r.normal(), 1.2324336570310905);
  EXPECT_EQ(r.normal(), 0.023078911007318733);
}

TEST(Rng, NormalPairIsDeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  int same_as_other_seed = 0;
  for (int i = 0; i < 100; ++i) {
    const auto [a0, a1] = a.normal_pair();
    const auto [b0, b1] = b.normal_pair();
    const auto [c0, c1] = c.normal_pair();
    EXPECT_EQ(a0, b0);
    EXPECT_EQ(a1, b1);
    if (a0 == c0) ++same_as_other_seed;
  }
  EXPECT_LT(same_as_other_seed, 2);
}

TEST(Rng, NormalPairMomentsAndIndependence) {
  Rng r(17);
  const int n = 1'000'000;
  double s0 = 0, s1 = 0, q0 = 0, q1 = 0, cross = 0;
  for (int i = 0; i < n; ++i) {
    const auto [x, y] = r.normal_pair();
    s0 += x;
    s1 += y;
    q0 += x * x;
    q1 += y * y;
    cross += x * y;
  }
  const double m0 = s0 / n, m1 = s1 / n;
  const double v0 = q0 / n - m0 * m0, v1 = q1 / n - m1 * m1;
  // 5 sigma: a sample mean of N(0,1) has sd 1/sqrt(n), a sample variance
  // sd sqrt(2/n).
  const double mean_tol = 5.0 / std::sqrt(double{n});
  const double var_tol = 5.0 * std::sqrt(2.0 / n);
  EXPECT_NEAR(m0, 0.0, mean_tol);
  EXPECT_NEAR(m1, 0.0, mean_tol);
  EXPECT_NEAR(v0, 1.0, var_tol);
  EXPECT_NEAR(v1, 1.0, var_tol);
  const double corr = (cross / n - m0 * m1) / std::sqrt(v0 * v1);
  EXPECT_LT(std::abs(corr), 0.005);
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  Rng a(77);
  Rng a2(77);
  Rng s1 = a.split();
  Rng s2 = a2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
  // Parent stream continues deterministically after the split.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u64(), a2.next_u64());
}

}  // namespace
}  // namespace cpe::sim
