// Telemetry analytics: windowed time-series rollups + an SLO rules engine.
//
// MetricsRegistry (§9) holds cumulative totals; spans (§10) hold individual
// intervals.  Neither answers "is the system abnormal *right now*" — the
// question every adaptive scheduler in the paper exists to act on.  The
// Analytics sampler closes that gap: any registered Counter, Gauge or
// Histogram can opt into a TimeSeries, a fixed-memory ring of per-window
// rollups (rate / min / max / sum / percentiles / EWMA) sampled on a
// sim-clock cadence.  Counter windows diff monotonic totals (never raw
// reads mid-run — see MetricsRegistry::snapshot for the same discipline at
// bench scope); histogram windows diff bucket counts and read quantiles off
// the difference with Histogram's own rank walk, at zero allocation.
//
// On top of the windows sits a declarative SLO rules engine.  A rule states
// a condition that must HOLD, in a one-line grammar (DESIGN.md §14):
//
//     p99(mpvm.stage.freeze) < 0.25
//     rate(gs.decisions.failed) <= 2 for 3
//     ewma(gs.load.cv) < 0.5
//
//     rule  := agg '(' series ')' cmp number ['for' N]
//     agg   := p50 | p95 | p99 | rate | value | mean | ewma
//              | count | min | max | sum
//     cmp   := '<' | '<=' | '>' | '>='
//
// Rules are evaluated once per closed window; a rule whose condition fails
// for N consecutive windows (`for N`, default 1) fires a typed SloViolation
// that is appended to violations(), counted (`analytics.slo.violations` +
// one counter per rule), and dispatched to hooks — the FlightRecorder
// (flight.hpp) arms one to dump post-mortem state.
//
// Allocation discipline: after the first window has been sampled for every
// tracked series, the steady-state sampling path performs ZERO heap
// allocations (rings and bucket scratch are preallocated; the sampler event
// captures one pointer and rides the engine's inline slot pool).  Only a
// *firing* violation allocates (the violations() record and the hooks).
// Enforced by a counting-allocator test in tests/obs/analytics_test.cpp.
//
// Like the rest of obs, the sampler reads engine time but scheduling is
// explicit and bounded: start() arms a self-rescheduling tick, stop()
// cancels it.  Sampling never mutates the instruments it reads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace cpe::obs {

enum class SeriesKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(SeriesKind k) noexcept;

/// One closed sampling window of one series.  Field semantics by kind:
///   Counter:    count = total delta, rate = count/dt, sum = count,
///               min = max = value = rate.
///   Gauge:      value = last observed, min = max = sum = value,
///               count = 1 once the gauge has ever been set, rate = 0.
///   Histogram:  count = samples recorded this window, rate = count/dt,
///               sum = sample-sum delta, value = window mean,
///               min/max = bucket-edge bounds of the windowed samples,
///               p50/p95/p99 = Histogram::quantile over the bucket-count
///               deltas (same rank walk and error bound).
/// ewma smooths `value` across windows with AnalyticsOptions::ewma_alpha;
/// a histogram window with no samples leaves the EWMA unchanged.
struct Window {
  sim::Time t = 0;   ///< close time
  sim::Time dt = 0;  ///< actual elapsed time covered
  std::uint64_t count = 0;
  double rate = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double value = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double ewma = 0;
};

/// Fixed-memory ring of windows for one tracked metric.  Capacity is set at
/// track time and never grows; the oldest window falls off the end.
class TimeSeries {
 public:
  TimeSeries(std::string name, SeriesKind kind, std::size_t capacity);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] SeriesKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Windows currently retained (≤ capacity).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Windows ever pushed (≥ size()).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// i = 0 is the OLDEST retained window, i = size()-1 the newest.
  [[nodiscard]] const Window& window(std::size_t i) const;
  /// Newest window; nullptr before the first sample.
  [[nodiscard]] const Window* latest() const noexcept;

  void push(const Window& w) noexcept;

 private:
  std::string name_;
  SeriesKind kind_;
  std::vector<Window> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

/// Which window statistic a rule reads.
enum class SloAgg : std::uint8_t {
  kRate,
  kValue,
  kEwma,
  kCount,
  kMin,
  kMax,
  kSum,
  kP50,
  kP95,
  kP99,
};

enum class SloCmp : std::uint8_t { kLt, kLe, kGt, kGe };

[[nodiscard]] const char* to_string(SloAgg a) noexcept;
[[nodiscard]] const char* to_string(SloCmp c) noexcept;

/// A declarative service-level objective over one tracked series.  The rule
/// states the condition that must HOLD; a violation fires when it fails for
/// `for_windows` consecutive windows (and keeps firing each further
/// violating window while the streak persists — a sustained breach is many
/// violations, which is what the counters should say).
struct SloRule {
  std::string name;    ///< defaults to the canonical text()
  std::string series;  ///< metric name (auto-tracked by Analytics::add_rule)
  SloAgg agg = SloAgg::kValue;
  SloCmp cmp = SloCmp::kLt;
  double threshold = 0;
  int for_windows = 1;

  /// Parse the grammar documented at the top of this header.  Asserts on
  /// malformed input (rules are written by bench/example authors, not fed
  /// from untrusted data).  "mean" is accepted as an alias for "value".
  [[nodiscard]] static SloRule parse(std::string_view text);
  /// Canonical re-rendering, e.g. "p99(mpvm.stage.freeze) < 0.25 for 3".
  [[nodiscard]] std::string text() const;
};

struct SloViolation {
  const SloRule* rule = nullptr;  ///< owned by the Analytics instance
  sim::Time t = 0;
  double observed = 0;
  double threshold = 0;
  int streak = 0;              ///< consecutive violating windows so far
  std::uint64_t window = 0;    ///< Analytics::windows() at fire time
};

struct AnalyticsOptions {
  sim::Time window = 1.0;         ///< sampling cadence (virtual seconds)
  std::size_t ring_windows = 120; ///< per-series ring capacity
  double ewma_alpha = 0.2;        ///< EWMA smoothing for Window::ewma
};

/// The windowed sampler + SLO evaluator.  One instance per PvmSystem-scale
/// registry; benches typically create it next to the Testbed and call
/// start() before running the scenario.
class Analytics {
 public:
  Analytics(sim::Engine& eng, MetricsRegistry& reg,
            AnalyticsOptions opt = {});
  Analytics(const Analytics&) = delete;
  Analytics& operator=(const Analytics&) = delete;
  ~Analytics();

  // -- tracking -----------------------------------------------------------
  // Instruments are created on first use (registry semantics), so a series
  // can be tracked before the instrumented code path ever runs.  Returned
  // references stay valid for the Analytics lifetime.
  TimeSeries& track_counter(std::string_view name);
  TimeSeries& track_gauge(std::string_view name);
  TimeSeries& track_histogram(std::string_view name);

  [[nodiscard]] const TimeSeries* find(std::string_view name) const;
  [[nodiscard]] std::size_t series_count() const noexcept {
    return tracked_.size();
  }
  /// Tracking-order access (deterministic; used by the flight recorder).
  [[nodiscard]] const TimeSeries& series_at(std::size_t i) const;

  // -- SLO rules ----------------------------------------------------------
  /// Adds a rule and auto-tracks its series, inferring the instrument kind
  /// from the aggregate (p50/p95/p99 → histogram; rate/count → counter
  /// unless the name already resolves to a histogram; value/ewma/min/max/
  /// sum → whatever the registry already holds, else a gauge).
  const SloRule& add_rule(SloRule rule);
  const SloRule& add_rule(std::string_view text) {
    return add_rule(SloRule::parse(text));
  }
  [[nodiscard]] std::size_t rule_count() const noexcept {
    return rules_.size();
  }
  [[nodiscard]] const SloRule& rule_at(std::size_t i) const;

  /// Violations in fire order (the flight recorder tails this).
  [[nodiscard]] const std::vector<SloViolation>& violations() const noexcept {
    return violations_;
  }

  /// Install a violation hook; returns an id for remove_violation_hook.
  std::size_t on_violation(std::function<void(const SloViolation&)> hook);
  void remove_violation_hook(std::size_t id) noexcept;

  // -- sampling -----------------------------------------------------------
  /// Arm the self-rescheduling sampler: one sample_now() every
  /// options().window until `horizon` (default: forever — callers driving
  /// the engine with run-to-empty must stop() explicitly).
  void start(sim::Time horizon = sim::kForever);
  void stop() noexcept;
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Close one window now: roll up every tracked series, then evaluate
  /// every rule.  Benches may call this manually instead of start().
  void sample_now();

  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] const AnalyticsOptions& options() const noexcept {
    return opt_;
  }
  [[nodiscard]] sim::Engine& engine() const noexcept { return *eng_; }
  [[nodiscard]] MetricsRegistry& registry() const noexcept { return *reg_; }

 private:
  struct Tracked {
    TimeSeries series;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* hist = nullptr;
    std::uint64_t prev_count = 0;
    double prev_sum = 0;
    /// Hist only, preallocated: the bucket counts at the last window, and
    /// this window's share of them.
    std::vector<std::uint64_t> prev_buckets;
    std::vector<std::uint64_t> window_buckets;

    Tracked(std::string name, SeriesKind kind, std::size_t cap)
        : series(std::move(name), kind, cap) {}
  };

  struct RuleState {
    SloRule rule;
    const TimeSeries* series = nullptr;
    Counter* fired = nullptr;  ///< "analytics.slo.rule.<name>"
    int streak = 0;
  };

  Tracked* find_tracked(std::string_view name) noexcept;
  void roll(Tracked& tr, sim::Time now, sim::Time dt) noexcept;
  void evaluate(sim::Time now);
  void fire(RuleState& rs, double observed, sim::Time now);
  void tick(sim::Time horizon);

  sim::Engine* eng_;
  MetricsRegistry* reg_;
  AnalyticsOptions opt_;
  std::deque<Tracked> tracked_;  ///< deque: stable refs across track_*()
  std::deque<RuleState> rules_;
  std::vector<SloViolation> violations_;
  std::vector<std::function<void(const SloViolation&)>> hooks_;
  Counter* violations_total_ = nullptr;  ///< "analytics.slo.violations"
  sim::Time last_sample_ = 0;
  std::uint64_t windows_ = 0;
  bool running_ = false;
  sim::EventId timer_{};  ///< pending tick; cancelled by stop()/destructor
};

}  // namespace cpe::obs
