#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace cpe::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksLastValueAndRunningMax) {
  Gauge g;
  EXPECT_FALSE(g.observed());
  EXPECT_EQ(g.max(), 0.0);
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  EXPECT_TRUE(g.observed());
  EXPECT_EQ(g.value(), 2.0);
  EXPECT_EQ(g.max(), 7.0);
  g.add(-5.0);
  EXPECT_EQ(g.value(), -3.0);
  EXPECT_EQ(g.max(), 7.0);
}

TEST(Gauge, MaxWorksForAllNegativeValues) {
  Gauge g;
  g.set(-9.0);
  g.set(-4.0);
  g.set(-6.0);
  EXPECT_EQ(g.max(), -4.0);  // not the 0 a naive `max_=0` init would give
}

TEST(Histogram, BucketGeometryMatchesTheDocumentedRule) {
  // Bucket i covers (first * growth^(i-1), first * growth^i], last = overflow.
  Histogram h({.first_bound = 1.0, .growth = 2.0, .buckets = 4});
  EXPECT_EQ(h.bucket_bound(0), 1.0);
  EXPECT_EQ(h.bucket_bound(1), 2.0);
  EXPECT_EQ(h.bucket_bound(2), 4.0);
  EXPECT_TRUE(std::isinf(h.bucket_bound(3)));

  h.record(0.5);    // bucket 0
  h.record(1.0);    // bucket 0 (bound is inclusive)
  h.record(1.001);  // bucket 1
  h.record(2.0);    // bucket 1
  h.record(3.0);    // bucket 2
  h.record(100.0);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 107.501);
}

TEST(Histogram, EmptyHistogramIsAllZeros) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, NegativeSamplesClampAndNonFiniteSamplesDrop) {
  // Stage timers subtract virtual times; FP noise can nudge a zero-length
  // span negative — clamp those to 0.  NaN/Infinity can only come from a
  // genuine instrumentation bug: dropping them keeps sum()/mean() finite
  // (one NaN used to poison them forever) and bad_samples() counts them.
  Histogram h;
  h.record(-1e-15);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());
  h.record(2.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bad_samples(), 3u);
  EXPECT_EQ(h.sum(), 2.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 2.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
  EXPECT_TRUE(std::isfinite(h.quantile(0.99)));
}

TEST(Gauge, NonFiniteSamplesAreDroppedNotStored) {
  Gauge g;
  g.set(5.0);
  g.set(std::numeric_limits<double>::quiet_NaN());
  g.set(std::numeric_limits<double>::infinity());
  g.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(g.value(), 5.0);  // last good value stands
  EXPECT_EQ(g.max(), 5.0);
  EXPECT_EQ(g.bad_samples(), 3u);
  g.set(6.0);
  EXPECT_EQ(g.value(), 6.0);
}

TEST(Registry, BadSamplesSurfaceAsACounter) {
  MetricsRegistry reg;
  reg.gauge("g").set(std::numeric_limits<double>::quiet_NaN());
  reg.histogram("h").record(std::numeric_limits<double>::infinity());
  reg.collect();
  const Counter* bad = reg.find_counter("obs.bad_samples");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->value(), 2u);
  // The counter accumulates deltas, not totals, across collects.
  reg.collect();
  EXPECT_EQ(bad->value(), 2u);
  reg.histogram("h").record(std::numeric_limits<double>::quiet_NaN());
  std::ostringstream os;
  reg.write_jsonl(os);
  EXPECT_EQ(bad->value(), 3u);
  EXPECT_NE(os.str().find("\"obs.bad_samples\",\"value\":3"),
            std::string::npos);
}

TEST(Histogram, QuantilesLandWithinOneBucketAndClampToMax) {
  Histogram h({.first_bound = 1.0, .growth = 2.0, .buckets = 16});
  for (int i = 0; i < 90; ++i) h.record(1.5);  // bucket (1,2]
  for (int i = 0; i < 10; ++i) h.record(50.0);  // bucket (32,64]
  EXPECT_EQ(h.quantile(0.5), 2.0);   // p50 in the (1,2] bucket
  EXPECT_EQ(h.quantile(0.9), 2.0);   // exactly at the cumulative edge
  EXPECT_EQ(h.quantile(0.99), 50.0); // clamped to observed max, not 64
  EXPECT_EQ(h.quantile(1.0), 50.0);
}

TEST(Registry, CreatesOnFirstUseAndReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a.count");
  c1.inc(5);
  EXPECT_EQ(&reg.counter("a.count"), &c1);
  EXPECT_EQ(reg.counter("a.count").value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
  reg.gauge("a.gauge").set(1.0);
  reg.histogram("a.hist").record(1.0);
  EXPECT_EQ(reg.size(), 3u);

  EXPECT_EQ(reg.find_counter("a.count"), &c1);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(Registry, CollectorsRunAtEverySnapshot) {
  MetricsRegistry reg;
  int pulls = 0;
  reg.add_collector([&](MetricsRegistry& r) {
    ++pulls;
    r.gauge("pulled.value").set(static_cast<double>(pulls));
  });
  reg.collect();
  EXPECT_EQ(pulls, 1);
  std::ostringstream os;
  reg.write_jsonl(os);  // write runs the collectors too
  EXPECT_EQ(pulls, 2);
  EXPECT_NE(os.str().find("\"pulled.value\""), std::string::npos);
}

TEST(Registry, JsonlExportIsSortedStrictAndSparse) {
  sim::Engine eng;
  MetricsRegistry reg(&eng);
  reg.counter("z.last").inc(3);
  reg.counter("a.first").inc(1);
  reg.gauge("g.depth").set(2.5);
  Histogram& h = reg.histogram("h.lat", {.first_bound = 1.0, .growth = 2.0,
                                         .buckets = 8});
  h.record(1.5);
  h.record(100.0);  // overflow bucket -> "le":null
  reg.histogram("h.empty");

  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string out = os.str();

  // Counters export name-sorted, before gauges and histograms.
  const auto a = out.find("\"a.first\"");
  const auto z = out.find("\"z.last\"");
  const auto g = out.find("\"g.depth\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  ASSERT_NE(g, std::string::npos);
  EXPECT_LT(a, z);
  EXPECT_LT(z, g);

  // Strict JSON: no NaN/Infinity tokens, even with an empty histogram.
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_EQ(out.find("inf"), std::string::npos);

  // Sparse buckets: two samples -> exactly two bucket entries, the overflow
  // one exported as "le":null.
  EXPECT_NE(out.find("\"buckets\":[{\"le\":2,\"n\":1},{\"le\":null,\"n\":1}]"),
            std::string::npos);
  // Empty histogram exports count 0 (Table 2's mpvm.stage.* gates reject
  // a stage histogram left empty).
  EXPECT_NE(out.find("\"name\":\"h.empty\",\"count\":0"), std::string::npos);
}

TEST(StageTimer, MeasuresVirtualTimeOnCommit) {
  sim::Engine eng;
  Histogram h;
  auto timer = std::make_unique<StageTimer>(eng, h);
  eng.schedule_at(2.5, [&] {
    EXPECT_DOUBLE_EQ(timer->elapsed(), 2.5);
    EXPECT_DOUBLE_EQ(timer->commit(), 2.5);
    timer->commit();  // idempotent: records once
  });
  eng.run();
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
}

TEST(StageTimer, DestructorCommitsAndCancelDrops) {
  sim::Engine eng;
  Histogram h;
  auto committing = std::make_unique<StageTimer>(eng, h);
  auto cancelled = std::make_unique<StageTimer>(eng, h);
  eng.schedule_at(1.25, [&] {
    cancelled->cancel();
    cancelled.reset();   // records nothing
    committing.reset();  // destructor records 1.25
  });
  eng.run();
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.25);
}

TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(json_escape("a\x01"
                        "b"),
            "a\\u0001b");
  EXPECT_EQ(json_escape("plain"), "plain");
}

// -- Quantile error bound -----------------------------------------------------
// Pins the bound documented on Histogram::quantile: against the exact
// rank-⌈qn⌉ order statistic, the estimate never under-reports and
// over-reports by strictly less than one growth factor (for samples at or
// above first_bound).  Checked on three distribution shapes and two bucket
// geometries, with the deterministic sim::Rng.

void check_quantile_bound(const HistogramOptions& opt,
                          const std::vector<double>& samples,
                          const char* label) {
  Histogram h(opt);
  for (const double v : samples) h.record(v);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  for (const double q : {0.50, 0.90, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const double exact = sorted[rank > 0 ? rank - 1 : 0];
    const double est = h.quantile(q);
    if (exact >= opt.first_bound) {
      EXPECT_GE(est, exact) << label << " q=" << q;
      EXPECT_LT(est, exact * opt.growth) << label << " q=" << q;
    } else {
      EXPECT_LE(est, opt.first_bound) << label << " q=" << q;
    }
  }
}

TEST(Histogram, QuantileErrorBound) {
  sim::Rng rng(0xfeedbeef);
  std::vector<double> uniform, expo, bimodal;
  for (int i = 0; i < 10000; ++i) {
    uniform.push_back(rng.uniform(1e-3, 10.0));
    // Inverse-CDF exponential with mean 0.05 (a freeze-like latency).
    expo.push_back(-0.05 * std::log(1.0 - rng.uniform()));
    // Fast path vs slow path: the shape percentile gates exist for.
    bimodal.push_back(rng.uniform() < 0.9 ? 0.01 : 5.0);
  }
  const HistogramOptions coarse;  // growth 2, the runtime default
  // The TraceAnalytics offline geometry: growth 2^(1/8).
  const HistogramOptions fine{/*first_bound=*/1e-5,
                              /*growth=*/1.0905077326652577,
                              /*buckets=*/320};
  for (const HistogramOptions* opt : {&coarse, &fine}) {
    check_quantile_bound(*opt, uniform, "uniform");
    check_quantile_bound(*opt, expo, "exponential");
    check_quantile_bound(*opt, bimodal, "bimodal");
  }
}

// -- Snapshot diffing ---------------------------------------------------------

TEST(MetricsSnapshot, DiffsMonotonicTotals) {
  sim::Engine eng;
  MetricsRegistry reg(&eng);
  reg.counter("a").inc(10);
  const MetricsSnapshot before = reg.snapshot();
  EXPECT_DOUBLE_EQ(before.t, 0.0);
  EXPECT_EQ(before.value("a"), 10u);
  EXPECT_EQ(before.value("missing"), 0u);

  reg.counter("a").inc(5);
  reg.counter("born.later").inc(3);
  eng.schedule_at(2.0, [] {});
  eng.run();
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_DOUBLE_EQ(after.t, 2.0);
  EXPECT_EQ(after.delta(before, "a"), 5u);
  // A counter born between snapshots diffs from zero, not from garbage.
  EXPECT_EQ(after.delta(before, "born.later"), 3u);
  EXPECT_EQ(after.delta(before, "missing"), 0u);
}

TEST(MetricsSnapshot, RunsCollectorsSoPullSourcesAreIncluded) {
  MetricsRegistry reg;
  int pulls = 0;
  reg.add_collector([&pulls](MetricsRegistry& r) {
    r.counter("pulled").inc();
    ++pulls;
  });
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(pulls, 1);
  EXPECT_EQ(snap.value("pulled"), 1u);
}

}  // namespace
}  // namespace cpe::obs
