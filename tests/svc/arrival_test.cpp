#include "svc/arrival.hpp"

#include <gtest/gtest.h>

namespace cpe::svc {
namespace {

TEST(PoissonArrivals, MeanGapMatchesRate) {
  PoissonArrivals a(50.0, 7);
  double sum = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const sim::Time gap = a.next_gap(0);
    ASSERT_GE(gap, 0);
    sum += gap;
  }
  EXPECT_NEAR(sum / kDraws, 1.0 / 50.0, 0.001);
}

TEST(PoissonArrivals, SeededAndReproducible) {
  PoissonArrivals a(10.0, 42);
  PoissonArrivals b(10.0, 42);
  PoissonArrivals c(10.0, 43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const sim::Time ga = a.next_gap(0);
    EXPECT_EQ(ga, b.next_gap(0));
    if (ga != c.next_gap(0)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(DiurnalArrivals, RateFollowsTheSinusoid) {
  DiurnalArrivals a(100.0, 0.8, 86400.0, 1);
  EXPECT_NEAR(a.rate_at(0), 100.0, 1e-9);
  EXPECT_NEAR(a.rate_at(86400.0 / 4), 180.0, 1e-9);    // peak
  EXPECT_NEAR(a.rate_at(3 * 86400.0 / 4), 20.0, 1e-9);  // trough
}

TEST(DiurnalArrivals, ThinningTracksTheModulatedRate) {
  // Count arrivals in a window around the peak and around the trough; the
  // ratio must reflect the modulation (peak 1.5x base vs trough 0.5x).
  DiurnalArrivals peak_gen(200.0, 0.5, 1000.0, 9);
  sim::Time t = 250.0 - 50.0;  // window [200, 300] straddles the peak
  int peak_n = 0;
  while (t < 300.0) {
    t += peak_gen.next_gap(t);
    ++peak_n;
  }
  DiurnalArrivals trough_gen(200.0, 0.5, 1000.0, 9);
  t = 750.0 - 50.0;  // window [700, 800] straddles the trough
  int trough_n = 0;
  while (t < 800.0) {
    t += trough_gen.next_gap(t);
    ++trough_n;
  }
  EXPECT_GT(peak_n, 2 * trough_n);
}

}  // namespace
}  // namespace cpe::svc
