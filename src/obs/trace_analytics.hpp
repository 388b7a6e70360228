// Trace analytics: per-migration critical paths and per-stage percentiles.
//
// The span stream (span.hpp) records every migration as an `mpvm.migrate`
// root with one child span per protocol stage (precopy / freeze / flush /
// transfer / restart).  This pass turns that stream into the numbers the
// paper's tables are made of: for each completed migration, which stage
// DOMINATED it (the critical path), and across migrations, the per-stage
// p50/p95/p99 — computed through Histograms, so quantile estimates land
// within +9.05% of exact (see the error bound on Histogram::quantile).
//
// Incomplete traces — migrations that aborted, were fenced off by a stale
// epoch, were killed by the admission watchdog, or whose root/stage spans
// never closed — are SKIPPED, not guessed at: they increment
// traces_skipped() and, when a registry is supplied, the
// `analytics.traces_skipped` counter, so a bench that silently lost half
// its traces cannot report healthy percentiles.  (An aborted *precopy*
// child under a successful migration is not an incomplete trace: the
// fallback to stop-and-copy is a normal path and its precopy time is real
// wall time, so it is attributed like any other stage.)
//
// Coverage is the honesty check: stage_total / wall per migration.  The
// benches gate coverage_min() ≥ 0.95 — if stages ever stop accounting for
// the migration wall span, the attribution (not the gate) is what broke.
//
// This is an offline pass over a collected span set (it allocates freely);
// run it after the scenario, never on the sampling path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace cpe::obs {

/// One completed migration's attribution.
struct MigrationPath {
  TraceId trace_id = 0;
  SpanId span_id = 0;       ///< the mpvm.migrate root
  sim::Time start = 0;
  double wall = 0;          ///< root span duration
  double stage_total = 0;   ///< sum of stage-span durations
  double coverage = 0;      ///< stage_total / wall (1.0 when wall == 0)
  std::string dominant;     ///< stage with the largest total duration
  double dominant_time = 0;
};

/// One row of the per-stage table.
struct StageStats {
  std::string stage;         ///< e.g. "mpvm.freeze"
  std::uint64_t count = 0;   ///< stage spans observed
  std::uint64_t dominant = 0;///< migrations this stage dominated
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double mean = 0;
  double max = 0;
  double total = 0;          ///< summed duration across migrations
};

class TraceAnalytics {
 public:
  /// Analyse a collected span set (bench_util::collect_spans output or a
  /// tracer's ring).  When `reg` is non-null, skipped traces are counted
  /// into `analytics.traces_skipped`.
  explicit TraceAnalytics(const std::vector<SpanRecord>& spans,
                          MetricsRegistry* reg = nullptr);

  [[nodiscard]] const std::vector<MigrationPath>& paths() const noexcept {
    return paths_;
  }
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return paths_.size();
  }
  [[nodiscard]] std::uint64_t traces_skipped() const noexcept {
    return skipped_;
  }

  /// Smallest / mean per-migration coverage (1.0 when no migrations).
  [[nodiscard]] double coverage_min() const noexcept { return coverage_min_; }
  [[nodiscard]] double coverage_mean() const noexcept;

  /// Name-sorted per-stage table (percentiles from the stage histograms).
  [[nodiscard]] std::vector<StageStats> stage_table() const;
  /// Histogram for one stage; nullptr when the stage never appeared.
  [[nodiscard]] const Histogram* stage_histogram(std::string_view stage) const;

 private:
  void analyse(const std::vector<SpanRecord>& spans, MetricsRegistry* reg);

  std::vector<MigrationPath> paths_;
  std::map<std::string, Histogram, std::less<>> stage_hist_;
  std::map<std::string, double, std::less<>> stage_total_;
  std::uint64_t skipped_ = 0;
  double coverage_min_ = 1.0;
  double coverage_sum_ = 0;
};

}  // namespace cpe::obs
