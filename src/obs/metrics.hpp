// Observability: the measurement substrate for the reproduction.
//
// The paper's entire evaluation is measurement — Tables 1-6 are per-stage
// migration latencies and overhead breakdowns — so the simulation carries a
// first-class metrics layer: monotonic Counters, last-value Gauges, and
// log-bucketed Histograms behind a MetricsRegistry, plus an RAII StageTimer
// that turns a scope (a protocol stage, a redistribution round, a recovery)
// into a histogram sample of *virtual* time.  Snapshots export as JSONL so
// benches emit machine-readable BENCH_metrics.json files (DESIGN.md §9
// documents the schema and the metric-name taxonomy).
//
// Everything here is simulation-time aware but engine-passive: metrics never
// schedule events, so instrumentation cannot perturb a deterministic replay.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace cpe::sim {
class Engine;
}  // namespace cpe::sim

namespace cpe::obs {

/// Monotonic event count (migrations completed, retries, drops...).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-observed value with a running maximum (queue depths, backlogs).
/// Non-finite samples are dropped (the last good value stands) and counted:
/// one NaN must not poison an export that promises strict JSON.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!std::isfinite(v)) {
      ++bad_samples_;
      return;
    }
    value_ = v;
    if (!seen_ || v > max_) max_ = v;
    seen_ = true;
  }
  void add(double d) noexcept { set(value_ + d); }

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept { return seen_ ? max_ : 0.0; }
  [[nodiscard]] bool observed() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t bad_samples() const noexcept {
    return bad_samples_;
  }

 private:
  double value_ = 0;
  double max_ = 0;
  bool seen_ = false;
  std::uint64_t bad_samples_ = 0;
};

/// Log-bucketed histogram geometry.  Bucket i covers
/// (first_bound * growth^(i-1), first_bound * growth^i]; the final bucket is
/// the overflow catch-all.  The defaults span 1 µs .. ~10^13 s — every
/// duration and byte count the simulation can produce.
struct HistogramOptions {
  double first_bound = 1e-6;
  double growth = 2.0;
  int buckets = 64;
};

class Histogram {
 public:
  explicit Histogram(HistogramOptions opt = {});

  /// Record one sample.  Negative samples are clamped to 0 (they can only
  /// arise from floating-point noise in a time subtraction); NaN/infinite
  /// samples are dropped and counted — a single NaN would otherwise poison
  /// sum()/mean() forever and break the strict-JSON export promise.
  void record(double v);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t bad_samples() const noexcept {
    return bad_samples_;
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Approximate quantile (q in [0,1]): the upper bound of the bucket where
  /// the cumulative count reaches rank ⌈q·count⌉, clamped to the observed
  /// max.
  ///
  /// Worst-case error bound (pinned by MetricsTest.QuantileErrorBound):
  /// with `exact` the rank-⌈q·count⌉ order statistic (empirical inverse
  /// CDF, the same rank convention this walk uses),
  ///
  ///     exact <= quantile(q) < exact * growth     for exact >= first_bound
  ///     0     <= quantile(q) <= first_bound       for exact <  first_bound
  ///
  /// i.e. the estimate NEVER under-reports and over-reports by strictly
  /// less than one bucket's growth factor (+100% at the default growth=2;
  /// +9.05% at obs::TraceAnalytics' fine 2^(1/8) geometry), with absolute
  /// error at most first_bound below the first bound.  Lower bound: the
  /// rank-crossing bucket contains the exact sample, whose bucket upper
  /// bound is >= it, and the clamp to max() only engages when the bound
  /// exceeds the largest sample.  Upper bound: every sample in bucket i is
  /// > bucket_bound(i)/growth, so bound < sample * growth.
  [[nodiscard]] double quantile(double q) const;

  /// Upper bound of bucket i (infinity for the overflow bucket).
  [[nodiscard]] double bucket_bound(int i) const;
  [[nodiscard]] std::uint64_t bucket_count(int i) const {
    CPE_EXPECTS(i >= 0 && i < static_cast<int>(counts_.size()));
    return counts_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int buckets() const noexcept {
    return static_cast<int>(counts_.size());
  }
  [[nodiscard]] const HistogramOptions& options() const noexcept {
    return opt_;
  }

 private:
  [[nodiscard]] int bucket_for(double v) const;

  HistogramOptions opt_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t bad_samples_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Point-in-time copy of every counter's monotonic total.  Rates and
/// per-phase tallies must be computed by DIFFING two snapshots — never by
/// reading a live counter mid-run and subtracting later (the instrument
/// may be shared with concurrent machinery, and a raw read freezes no
/// baseline).  obs::Analytics applies the same discipline per window.
struct MetricsSnapshot {
  sim::Time t = 0;
  std::map<std::string, std::uint64_t, std::less<>> counters;

  /// Total for `name` at snapshot time (0 when the counter didn't exist).
  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  /// This snapshot minus an earlier one: value(name) - earlier.value(name).
  /// Counters are monotonic, so a counter born between the two snapshots
  /// diffs from 0.
  [[nodiscard]] std::uint64_t delta(const MetricsSnapshot& earlier,
                                    std::string_view name) const;
};

/// Name-addressed metric store.  Metrics are created on first use and live
/// for the registry's lifetime, so instrumentation sites can cache the
/// returned references.  Export order is deterministic (name-sorted), like
/// everything else in the simulator.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(const sim::Engine* eng = nullptr) : eng_(eng) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, HistogramOptions opt = {});

  /// Lookup without creation (tests, exporters); nullptr when absent.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Pull-style sources (the net:: transport counters): collectors run at
  /// every snapshot so the export reflects the transport's current totals
  /// without the hot path touching the registry.
  void add_collector(std::function<void(MetricsRegistry&)> fn) {
    collectors_.push_back(std::move(fn));
  }
  /// Runs the collectors, then folds every instrument's dropped-sample tally
  /// into the `obs.bad_samples` counter (created on first bad sample only).
  void collect();

  /// Copy every counter's current total (running the collectors first, so
  /// pull-style sources are included).  See MetricsSnapshot for the
  /// snapshot-diff discipline this exists to enforce.
  [[nodiscard]] MetricsSnapshot snapshot();

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// One JSON object per line (see DESIGN.md §9 for the schema).  Runs the
  /// collectors first.  Strict JSON: no NaN/Infinity ever appears — empty
  /// histograms export zeros (and a count of 0 that CI rejects).
  void write_jsonl(std::ostream& os);

 private:
  const sim::Engine* eng_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<std::function<void(MetricsRegistry&)>> collectors_;
  std::uint64_t bad_samples_exported_ = 0;
};

/// RAII span: measures virtual time from construction until commit() — or
/// destruction, for the common straight-line scope — and records it into a
/// histogram.  cancel() drops the sample (a stage that aborted must not
/// pollute the latency distribution).  Safe across co_await suspension
/// points: only engine *time* is read, never wall clock.
class StageTimer {
 public:
  StageTimer(const sim::Engine& eng, Histogram& hist);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer();

  /// Record the elapsed span now (idempotent).  Returns the elapsed time.
  sim::Time commit();
  /// Discard the span: neither commit() nor the destructor will record.
  void cancel() noexcept { done_ = true; }
  [[nodiscard]] sim::Time elapsed() const;

 private:
  const sim::Engine* eng_;
  Histogram* hist_;
  sim::Time start_;
  bool done_ = false;
};

/// A double as strict JSON in `%.9g` form; a non-finite value is written
/// as 0 (the metrics and flight exports never carry NaN or Infinity).
[[nodiscard]] std::string json_num(double v);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace cpe::obs
