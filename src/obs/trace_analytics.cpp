#include "obs/trace_analytics.hpp"

#include <algorithm>
#include <unordered_map>

namespace cpe::obs {

namespace {

bool is_stage_child(const SpanRecord& s) {
  return !s.instant && s.name.starts_with("mpvm.");
}

}  // namespace

TraceAnalytics::TraceAnalytics(const std::vector<SpanRecord>& spans,
                               MetricsRegistry* reg) {
  analyse(spans, reg);
}

void TraceAnalytics::analyse(const std::vector<SpanRecord>& spans,
                             MetricsRegistry* reg) {
  std::unordered_map<SpanId, std::vector<const SpanRecord*>> children;
  children.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent_span != 0) children[s.parent_span].push_back(&s);
  }

  for (const SpanRecord& root : spans) {
    if (root.name != "mpvm.migrate") continue;
    // Only migrations that ran to completion carry a meaningful critical
    // path; aborted / fenced / never-closed roots are counted, not guessed.
    if (root.status != SpanStatus::kOk) {
      ++skipped_;
      continue;
    }

    double stage_total = 0;
    bool incomplete = false;
    // Stage totals per name within this one migration (pre-copy runs in
    // rounds, so a stage name can appear more than once).
    std::map<std::string_view, double> per_stage;
    const auto kids = children.find(root.span_id);
    if (kids != children.end()) {
      for (const SpanRecord* c : kids->second) {
        if (!is_stage_child(*c)) continue;
        if (c->status == SpanStatus::kOpen) {
          // A stage that never closed means the trace was cut mid-flight
          // (ring overflow or a protocol bug the auditor flags) — the
          // migration's attribution would be a lie, so skip it whole.
          incomplete = true;
          break;
        }
        const double d = c->duration();
        stage_total += d;
        per_stage[c->name] += d;
      }
    }
    if (incomplete || per_stage.empty()) {
      ++skipped_;
      continue;
    }

    MigrationPath p;
    p.trace_id = root.trace_id;
    p.span_id = root.span_id;
    p.start = root.start;
    p.wall = root.duration();
    p.stage_total = stage_total;
    p.coverage = p.wall > 0 ? stage_total / p.wall : 1.0;
    for (const auto& [name, total] : per_stage) {
      // std::map iterates name-sorted, so ties resolve to the
      // lexicographically-first stage — deterministic across runs.
      if (total > p.dominant_time) {
        p.dominant = std::string(name);
        p.dominant_time = total;
      }
    }

    // Per-span (not per-migration-sum) samples: the table answers "how long
    // does one freeze take", matching the mpvm.stage.* runtime histograms.
    if (kids != children.end()) {
      for (const SpanRecord* c : kids->second) {
        if (!is_stage_child(*c)) continue;
        stage_hist_[c->name].record(c->duration());
        stage_total_[c->name] += c->duration();
      }
    }

    coverage_min_ = std::min(coverage_min_, p.coverage);
    coverage_sum_ += p.coverage;
    paths_.push_back(std::move(p));
  }

  if (reg != nullptr && skipped_ > 0)
    reg->counter("analytics.traces_skipped").inc(skipped_);
}

double TraceAnalytics::coverage_mean() const noexcept {
  return paths_.empty() ? 1.0
                        : coverage_sum_ / static_cast<double>(paths_.size());
}

std::vector<StageStats> TraceAnalytics::stage_table() const {
  std::vector<StageStats> table;
  table.reserve(stage_hist_.size());
  for (const auto& [name, hist] : stage_hist_) {
    StageStats s;
    s.stage = name;
    s.count = hist.count();
    s.p50 = hist.quantile(0.50);
    s.p95 = hist.quantile(0.95);
    s.p99 = hist.quantile(0.99);
    s.mean = hist.mean();
    s.max = hist.max();
    const auto tot = stage_total_.find(name);
    s.total = tot != stage_total_.end() ? tot->second : 0.0;
    table.push_back(std::move(s));
  }
  for (const MigrationPath& p : paths_) {
    for (StageStats& s : table)
      if (s.stage == p.dominant) ++s.dominant;
  }
  return table;
}

const Histogram* TraceAnalytics::stage_histogram(
    std::string_view stage) const {
  const auto it = stage_hist_.find(stage);
  return it == stage_hist_.end() ? nullptr : &it->second;
}

}  // namespace cpe::obs
