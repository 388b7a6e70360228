#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
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

TEST(Rng, ZigguratIsDeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  int same_as_other_seed = 0;
  for (int i = 0; i < 1000; ++i) {
    const double x = a.normal_ziggurat();
    EXPECT_EQ(x, b.normal_ziggurat());
    if (x == c.normal_ziggurat()) ++same_as_other_seed;
  }
  EXPECT_LT(same_as_other_seed, 2);
}

TEST(Rng, ZigguratValuesArePinned) {
  // The draws Opt's synthesized exemplars are made of: a change here changes
  // every set's content (ExemplarSet.SynthesizedContentIsPinned).
  Rng r(2024);
  EXPECT_EQ(r.normal_ziggurat(), -0.12340029311501292);
  EXPECT_EQ(r.normal_ziggurat(), 1.348707847617366);
  EXPECT_EQ(r.normal_ziggurat(), 0.26329976713559194);
  EXPECT_EQ(r.normal_ziggurat(), 0.26849526743954172);
}

constexpr int kZigguratDraws = 1'000'000;
/// Where the base layer's tail starts.
constexpr double kZigguratR = 3.6541528853610088;

TEST(Rng, ZigguratMomentsMatchTheStandardNormal) {
  Rng r(17);
  double s1 = 0, s2 = 0, s4 = 0;
  for (int i = 0; i < kZigguratDraws; ++i) {
    const double z = r.normal_ziggurat();
    s1 += z;
    s2 += z * z;
    s4 += z * z * z * z;
  }
  // 5 sigma of each raw moment's sample mean: E z = 0, E z^2 = 1 and
  // E z^4 = 3, with Var z = 1, Var z^2 = 2 and Var z^4 = 105 - 9 = 96.
  const double n = kZigguratDraws;
  EXPECT_NEAR(s1 / n, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(s2 / n, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(s4 / n, 3.0, 5.0 * std::sqrt(96.0 / n));
}

TEST(Rng, ZigguratTailBeyondRHasTheNormalMass) {
  // Every draw beyond +-R comes from the base layer's tail path.
  Rng r(23);
  int beyond = 0, negative = 0;
  double excess = 0;
  for (int i = 0; i < kZigguratDraws; ++i) {
    const double z = r.normal_ziggurat();
    if (std::abs(z) > kZigguratR) {
      ++beyond;
      if (z < 0) ++negative;
      excess += std::abs(z) - kZigguratR;
    }
  }
  const double p = std::erfc(kZigguratR / std::sqrt(2.0));  // 2(1 - Phi(R))
  EXPECT_NEAR(p, 2.58e-4, 0.005e-4);
  const double expect = kZigguratDraws * p;
  EXPECT_NEAR(beyond, expect, 5.0 * std::sqrt(expect * (1.0 - p)));
  EXPECT_NEAR(negative, beyond / 2.0, 5.0 * std::sqrt(beyond / 4.0));
  // The tail's shape: a normal truncated at R has mean R + lambda and
  // variance 1 + R lambda - lambda^2, lambda = phi(R) / (1 - Phi(R)).
  const double lambda = std::exp(-0.5 * kZigguratR * kZigguratR) /
                        std::sqrt(2.0 * std::numbers::pi) / (p / 2.0);
  const double var = 1.0 + kZigguratR * lambda - lambda * lambda;
  EXPECT_NEAR(excess / beyond, lambda - kZigguratR,
              5.0 * std::sqrt(var / beyond));
}

TEST(Rng, ZigguratFollowsTheNormalCdf) {
  // 64 bins of equal normal probability: bin k holds the draws with
  // Phi(z) in [k/64, (k+1)/64), so every layer and its wedge land in some
  // bin.  The wedges hold only 0.8% of the mass, too little for 10^6 draws
  // to resolve: a wedge test that always or never accepts is caught by the
  // moments above, not here.
  Rng r(29);
  constexpr std::size_t kBins = 64;
  std::vector<int> count(kBins, 0);
  for (int i = 0; i < kZigguratDraws; ++i) {
    const double phi = 0.5 * std::erfc(-r.normal_ziggurat() / std::sqrt(2.0));
    ++count[std::min(kBins - 1, static_cast<std::size_t>(phi * kBins))];
  }
  const double expect = static_cast<double>(kZigguratDraws) / kBins;
  double chi2 = 0;
  for (const int c : count) chi2 += (c - expect) * (c - expect) / expect;
  // The chi-square distribution with 63 degrees of freedom exceeds 131.37
  // with probability 1e-6.
  EXPECT_LT(chi2, 131.37);
}

TEST(Rng, ZigguratOuterStripsHoldTheNormalMass) {
  // The wedges are where a broken ziggurat hides: they hold 0.8% of the
  // mass, too little for the CDF bins above to resolve.  Between x2 and R
  // every draw of layer 1 lands in its wedge, and between x3 and x2 most of
  // layer 2's do, so the draws counted in those two strips test the wedge
  // acceptance itself.  A wedge that always or never accepts moves the outer
  // strip by a third of its mass; a straight chord between the layer edges
  // in place of the curve over-samples it by 4.0% and the next one by 1.4%
  // (7.0 and 2.7 sigma at 10^8 draws).  Each strip must hold its exact
  // normal mass within 5 sigma.
  constexpr double kV = 4.92867323399e-3;  // the area of every layer
  const auto next_edge = [&](double x) {
    return std::sqrt(-2.0 * std::log(kV / x + std::exp(-0.5 * x * x)));
  };
  const double x2 = next_edge(kZigguratR);
  const double x3 = next_edge(x2);
  EXPECT_NEAR(x2, 3.449278, 1e-6);
  EXPECT_NEAR(x3, 3.320245, 1e-6);

  constexpr int kDraws = 100'000'000;
  Rng r(31);
  std::int64_t outer = 0, inner = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double a = std::abs(r.normal_ziggurat());
    if (a >= x3 && a < kZigguratR) ++(a >= x2 ? outer : inner);
  }
  const auto mass = [](double lo, double hi) {  // P(lo <= |z| < hi)
    return std::erfc(lo / std::sqrt(2.0)) - std::erfc(hi / std::sqrt(2.0));
  };
  const auto sigmas = [&](std::int64_t count, double p) {
    const double expect = kDraws * p;
    return (static_cast<double>(count) - expect) /
           std::sqrt(expect * (1.0 - p));
  };
  EXPECT_LT(std::abs(sigmas(outer, mass(x2, kZigguratR))), 5.0)
      << outer << " draws in [x2, R)";
  EXPECT_LT(std::abs(sigmas(inner, mass(x3, x2))), 5.0)
      << inner << " draws in [x3, x2)";
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
