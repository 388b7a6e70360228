// Windowed rollups, the SLO rule grammar/engine, and the zero-allocation
// guarantee of the steady-state sampling path (the counting allocator below
// replaces the binary's global allocator, same pattern as engine_test.cpp).
#include "obs/analytics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"

// -- Global allocation counter ------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cpe::obs {
namespace {

// -- SloRule grammar ----------------------------------------------------------

TEST(SloRule, ParsesPercentileRule) {
  const SloRule r = SloRule::parse("p99(mpvm.stage.freeze) < 0.25");
  EXPECT_EQ(r.agg, SloAgg::kP99);
  EXPECT_EQ(r.series, "mpvm.stage.freeze");
  EXPECT_EQ(r.cmp, SloCmp::kLt);
  EXPECT_DOUBLE_EQ(r.threshold, 0.25);
  EXPECT_EQ(r.for_windows, 1);
  EXPECT_EQ(r.text(), "p99(mpvm.stage.freeze) < 0.25");
}

TEST(SloRule, ParsesForWindowsAndTwoCharCmp) {
  const SloRule r = SloRule::parse("rate(gs.decisions.failed) <= 2 for 3");
  EXPECT_EQ(r.agg, SloAgg::kRate);
  EXPECT_EQ(r.cmp, SloCmp::kLe);
  EXPECT_DOUBLE_EQ(r.threshold, 2.0);
  EXPECT_EQ(r.for_windows, 3);
  EXPECT_EQ(r.text(), "rate(gs.decisions.failed) <= 2 for 3");
}

TEST(SloRule, ParsesWithoutSpacesAndMeanAlias) {
  const SloRule r = SloRule::parse("mean(gs.load.cv)>=0.5");
  EXPECT_EQ(r.agg, SloAgg::kValue);  // mean is the value alias
  EXPECT_EQ(r.series, "gs.load.cv");
  EXPECT_EQ(r.cmp, SloCmp::kGe);
  EXPECT_DOUBLE_EQ(r.threshold, 0.5);
}

TEST(SloRule, ParseRoundTripsThroughText) {
  for (const char* text :
       {"p50(a.b) < 1", "ewma(x) > 0.125", "count(c) >= 10 for 2",
        "min(q.depth) >= 0", "sum(bytes) <= 1048576"}) {
    const SloRule r = SloRule::parse(text);
    const SloRule again = SloRule::parse(r.text());
    EXPECT_EQ(again.text(), r.text()) << text;
  }
}

// -- TimeSeries ring ----------------------------------------------------------

TEST(TimeSeries, RingEvictsOldestAndKeepsTotals) {
  TimeSeries ts("x", SeriesKind::kCounter, 3);
  for (int i = 0; i < 5; ++i) {
    Window w;
    w.t = i;
    ts.push(w);
  }
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.total(), 5u);
  EXPECT_DOUBLE_EQ(ts.window(0).t, 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(ts.window(2).t, 4.0);  // newest
  ASSERT_NE(ts.latest(), nullptr);
  EXPECT_DOUBLE_EQ(ts.latest()->t, 4.0);
}

// -- Rollups ------------------------------------------------------------------

class AnalyticsFixture : public ::testing::Test {
 protected:
  sim::Engine eng;
  MetricsRegistry reg{&eng};
};

TEST_F(AnalyticsFixture, CounterWindowsDiffMonotonicTotals) {
  AnalyticsOptions opt;
  opt.window = 2.0;
  Analytics an(eng, reg, opt);
  an.track_counter("t.ops");
  Counter& c = reg.counter("t.ops");

  c.inc(10);
  eng.schedule_at(2.0, [] {});
  eng.run();
  an.sample_now();
  const Window* w = an.find("t.ops")->latest();
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->count, 10u);
  EXPECT_DOUBLE_EQ(w->rate, 5.0);  // 10 events / 2 s
  EXPECT_DOUBLE_EQ(w->value, 5.0);

  c.inc(4);
  eng.schedule_at(4.0, [] {});
  eng.run();
  an.sample_now();
  w = an.find("t.ops")->latest();
  EXPECT_EQ(w->count, 4u);  // the delta, not the total of 14
  EXPECT_DOUBLE_EQ(w->rate, 2.0);
}

TEST_F(AnalyticsFixture, GaugeWindowsTrackValueAndEwma) {
  AnalyticsOptions opt;
  opt.window = 1.0;
  opt.ewma_alpha = 0.5;
  Analytics an(eng, reg, opt);
  an.track_gauge("t.depth");
  Gauge& g = reg.gauge("t.depth");

  g.set(1.0);
  eng.schedule_at(1.0, [] {});
  eng.run();
  an.sample_now();
  EXPECT_DOUBLE_EQ(an.find("t.depth")->latest()->ewma, 1.0);  // seeded

  g.set(3.0);
  eng.schedule_at(2.0, [] {});
  eng.run();
  an.sample_now();
  const Window* w = an.find("t.depth")->latest();
  EXPECT_DOUBLE_EQ(w->value, 3.0);
  EXPECT_DOUBLE_EQ(w->ewma, 2.0);  // 0.5*3 + 0.5*1
}

TEST_F(AnalyticsFixture, HistogramWindowsComputeDeltaQuantiles) {
  AnalyticsOptions opt;
  opt.window = 1.0;
  Analytics an(eng, reg, opt);
  an.track_histogram("t.lat");
  Histogram& h = reg.histogram("t.lat");

  // Window 1: 99 fast samples and one slow one.
  for (int i = 0; i < 99; ++i) h.record(0.010);
  h.record(0.800);
  eng.schedule_at(1.0, [] {});
  eng.run();
  an.sample_now();
  const Window* w = an.find("t.lat")->latest();
  EXPECT_EQ(w->count, 100u);
  EXPECT_DOUBLE_EQ(w->rate, 100.0);
  // Log-bucket over-estimate: within one growth factor of exact.
  EXPECT_GE(w->p50, 0.010);
  EXPECT_LE(w->p50, 0.010 * Histogram::kGrowth + 1e-12);
  EXPECT_GE(w->p99, 0.010);
  EXPECT_LE(w->p99, 0.010 * Histogram::kGrowth);
  // The first window holds every sample: Histogram's own rank walk.
  EXPECT_EQ(w->p99, h.quantile(0.99));
  EXPECT_GE(w->max, 0.800 - 1e-12);
  EXPECT_NEAR(w->value, (99 * 0.010 + 0.800) / 100.0, 1e-9);

  // Window 2 sees ONLY the new samples: all slow now.
  for (int i = 0; i < 10; ++i) h.record(0.600);
  eng.schedule_at(2.0, [] {});
  eng.run();
  an.sample_now();
  w = an.find("t.lat")->latest();
  EXPECT_EQ(w->count, 10u);
  EXPECT_GE(w->p50, 0.600);
  EXPECT_LE(w->p50, 0.600 * Histogram::kGrowth);

  // Window 3 is idle: quantiles zero, EWMA held from window 2.
  const double prev_ewma = w->ewma;
  eng.schedule_at(3.0, [] {});
  eng.run();
  an.sample_now();
  w = an.find("t.lat")->latest();
  EXPECT_EQ(w->count, 0u);
  EXPECT_DOUBLE_EQ(w->p99, 0.0);
  EXPECT_DOUBLE_EQ(w->ewma, prev_ewma);
}

// -- SLO engine ---------------------------------------------------------------

TEST_F(AnalyticsFixture, ViolationFiresCountsAndJournals) {
  AnalyticsOptions opt;
  opt.window = 1.0;
  Analytics an(eng, reg, opt);
  an.add_rule("rate(t.ops) < 2");

  int hook_calls = 0;
  double hook_observed = 0;
  an.on_violation([&](const SloViolation& v) {
    ++hook_calls;
    hook_observed = v.observed;
  });

  Counter& c = reg.counter("t.ops");
  c.inc(5);  // 5 ops/s >= 2: violated
  eng.schedule_at(1.0, [] {});
  eng.run();
  an.sample_now();

  ASSERT_EQ(an.violations().size(), 1u);
  const SloViolation& v = an.violations()[0];
  EXPECT_DOUBLE_EQ(v.observed, 5.0);
  EXPECT_DOUBLE_EQ(v.threshold, 2.0);
  EXPECT_EQ(v.streak, 1);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_DOUBLE_EQ(hook_observed, 5.0);
  EXPECT_EQ(reg.counter("analytics.slo.violations").value(), 1u);
  EXPECT_EQ(reg.counter("analytics.slo.rule.rate(t.ops) < 2").value(), 1u);
  // The record names the rule that fired.
  EXPECT_EQ(v.rule->name, "rate(t.ops) < 2");

  // A healthy window fires nothing and resets the streak.
  c.inc(1);
  eng.schedule_at(2.0, [] {});
  eng.run();
  an.sample_now();
  EXPECT_EQ(an.violations().size(), 1u);
}

TEST_F(AnalyticsFixture, ForWindowsRequiresConsecutiveBreaches) {
  AnalyticsOptions opt;
  opt.window = 1.0;
  Analytics an(eng, reg, opt);
  an.add_rule("rate(t.ops) < 2 for 2");
  Counter& c = reg.counter("t.ops");

  const auto step = [&](std::uint64_t incs) {
    c.inc(incs);
    eng.schedule_at(eng.now() + 1.0, [] {});
    eng.run();
    an.sample_now();
  };

  step(5);  // breach #1: streak 1 < 2, no fire
  EXPECT_TRUE(an.violations().empty());
  step(0);  // healthy: streak resets
  step(5);  // breach #1 again
  EXPECT_TRUE(an.violations().empty());
  step(5);  // breach #2: fires
  ASSERT_EQ(an.violations().size(), 1u);
  EXPECT_EQ(an.violations()[0].streak, 2);
  step(5);  // sustained breach keeps firing each window
  EXPECT_EQ(an.violations().size(), 2u);
}

TEST_F(AnalyticsFixture, AddRuleInfersInstrumentKind) {
  Analytics an(eng, reg);
  reg.histogram("h.lat");
  reg.gauge("g.cv");
  an.add_rule("p99(anything.new) < 1");        // percentile => histogram
  an.add_rule("rate(h.lat) < 10");             // existing histogram wins
  an.add_rule("ewma(g.cv) < 0.5");             // existing gauge wins
  an.add_rule("rate(fresh.counter) < 10");     // default: counter
  EXPECT_EQ(an.find("anything.new")->kind(), SeriesKind::kHistogram);
  EXPECT_EQ(an.find("h.lat")->kind(), SeriesKind::kHistogram);
  EXPECT_EQ(an.find("g.cv")->kind(), SeriesKind::kGauge);
  EXPECT_EQ(an.find("fresh.counter")->kind(), SeriesKind::kCounter);
}

// -- Scheduled sampling -------------------------------------------------------

TEST_F(AnalyticsFixture, StartSamplesOnCadenceAndHonoursHorizon) {
  AnalyticsOptions opt;
  opt.window = 1.0;
  Analytics an(eng, reg, opt);
  an.track_counter("t.ops");
  an.start(/*horizon=*/5.0);
  eng.run();
  EXPECT_EQ(an.windows(), 5u);
  EXPECT_FALSE(an.running());
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
}

TEST_F(AnalyticsFixture, StopCancelsThePendingTick) {
  Analytics an(eng, reg);
  an.track_counter("t.ops");
  an.start();
  an.stop();
  eng.run();  // would never terminate if the tick kept rescheduling
  EXPECT_EQ(an.windows(), 0u);
}

// -- The zero-allocation guarantee -------------------------------------------

TEST_F(AnalyticsFixture, SteadyStateSamplingDoesNotAllocate) {
  AnalyticsOptions opt;
  opt.window = 1.0;
  opt.ring_windows = 8;
  Analytics an(eng, reg, opt);
  an.track_counter("t.ops");
  an.track_gauge("t.depth");
  an.track_histogram("t.lat");
  // Armed-but-holding rules: evaluation must be free too.
  an.add_rule("rate(t.ops) < 1e9");
  an.add_rule("p99(t.lat) < 1e9");
  an.add_rule("ewma(t.depth) < 1e9");

  Counter& c = reg.counter("t.ops");
  Gauge& g = reg.gauge("t.depth");
  Histogram& h = reg.histogram("t.lat");

  an.start();
  // Warm-up: first windows seed EWMAs and the engine's event-slot pool.
  for (int i = 0; i < 4; ++i) {
    c.inc(3);
    g.set(1.0 + i);
    h.record(0.005 * (i + 1));
    eng.schedule_at(eng.now() + 1.0, [] {});
    eng.run_until(eng.now() + 1.0);
  }

  const std::uint64_t before = g_heap_allocs.load();
  for (int i = 0; i < 256; ++i) {
    c.inc(7);
    g.set(2.5);
    h.record(0.002);
    h.record(0.750);
    eng.run_until(eng.now() + 1.0);
  }
  EXPECT_EQ(g_heap_allocs.load(), before)
      << "steady-state sampling must not touch the heap";
  EXPECT_TRUE(an.violations().empty());
  an.stop();
}

}  // namespace
}  // namespace cpe::obs
