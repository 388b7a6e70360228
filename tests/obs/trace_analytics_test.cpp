// Critical-path extraction over synthetic span sets, including the S-case
// the analytics must never fudge: aborted / watchdog-killed / truncated
// migrations are skipped AND counted, never averaged into the table.
#include "obs/trace_analytics.hpp"

#include <gtest/gtest.h>

namespace cpe::obs {
namespace {

SpanRecord span(TraceId trace, SpanId id, SpanId parent, std::string name,
                double start, double end,
                SpanStatus status = SpanStatus::kOk) {
  SpanRecord r;
  r.trace_id = trace;
  r.span_id = id;
  r.parent_span = parent;
  r.name = std::move(name);
  r.host = "host1";
  r.start = start;
  r.end = end;
  r.status = status;
  return r;
}

/// A clean stop-and-copy migration: transfer dominates (6 s of 10 s).
std::vector<SpanRecord> clean_migration(TraceId trace, SpanId base,
                                        double t0 = 0.0) {
  std::vector<SpanRecord> s;
  s.push_back(span(trace, base, 0, "mpvm.migrate", t0, t0 + 10.0));
  s.push_back(span(trace, base + 1, base, "mpvm.freeze", t0, t0 + 1.0));
  s.push_back(span(trace, base + 2, base, "mpvm.flush", t0 + 1.0, t0 + 2.0));
  s.push_back(span(trace, base + 3, base, "mpvm.transfer", t0 + 2.0, t0 + 8.0));
  s.push_back(span(trace, base + 4, base, "mpvm.restart", t0 + 8.0, t0 + 10.0));
  return s;
}

TEST(TraceAnalytics, CleanMigrationFullCoverageTransferDominates) {
  TraceAnalytics ta(clean_migration(1, 1));
  ASSERT_EQ(ta.migrations(), 1u);
  EXPECT_EQ(ta.traces_skipped(), 0u);
  const MigrationPath& p = ta.paths()[0];
  EXPECT_DOUBLE_EQ(p.wall, 10.0);
  EXPECT_DOUBLE_EQ(p.stage_total, 10.0);
  EXPECT_DOUBLE_EQ(p.coverage, 1.0);
  EXPECT_EQ(p.dominant, "mpvm.transfer");
  EXPECT_DOUBLE_EQ(p.dominant_time, 6.0);
  EXPECT_DOUBLE_EQ(ta.coverage_min(), 1.0);
}

TEST(TraceAnalytics, StageTableQuantilesWithinFineGeometryBound) {
  std::vector<SpanRecord> s;
  SpanId id = 1;
  for (int i = 0; i < 8; ++i) {
    auto m = clean_migration(static_cast<TraceId>(i + 1), id,
                             static_cast<double>(i) * 20.0);
    s.insert(s.end(), m.begin(), m.end());
    id += 5;
  }
  TraceAnalytics ta(s);
  ASSERT_EQ(ta.migrations(), 8u);
  const auto table = ta.stage_table();
  ASSERT_EQ(table.size(), 4u);  // freeze, flush, restart, transfer
  std::uint64_t dominant_sum = 0;
  for (const StageStats& st : table) {
    dominant_sum += st.dominant;
    EXPECT_EQ(st.count, 8u) << st.stage;
    EXPECT_LE(st.p50, st.p95) << st.stage;
    EXPECT_LE(st.p95, st.p99) << st.stage;
  }
  // Critical-path attribution is a partition of the migrations.
  EXPECT_EQ(dominant_sum, ta.migrations());
  // All transfers took exactly 6 s: the fine-geometry estimate must sit
  // within +9.05% of exact.
  const StageStats* transfer = nullptr;
  for (const StageStats& st : table)
    if (st.stage == "mpvm.transfer") transfer = &st;
  ASSERT_NE(transfer, nullptr);
  EXPECT_EQ(transfer->dominant, 8u);
  EXPECT_GE(transfer->p99, 6.0);
  EXPECT_LE(transfer->p99, 6.0 * TraceAnalytics::kFineGeometry.growth);
}

TEST(TraceAnalytics, AbortedRootIsSkippedAndCounted) {
  auto s = clean_migration(1, 1);
  s[0].status = SpanStatus::kAborted;  // watchdog / rollback killed it
  auto more = clean_migration(2, 10);
  s.insert(s.end(), more.begin(), more.end());

  MetricsRegistry reg;
  TraceAnalytics ta(s, &reg);
  EXPECT_EQ(ta.migrations(), 1u);  // only the clean one
  EXPECT_EQ(ta.traces_skipped(), 1u);
  EXPECT_EQ(reg.counter("analytics.traces_skipped").value(), 1u);
  // The aborted migration's stages must NOT pollute the table.
  const auto table = ta.stage_table();
  for (const StageStats& st : table) EXPECT_EQ(st.count, 1u) << st.stage;
}

TEST(TraceAnalytics, FencedAndOpenRootsAreSkipped) {
  auto s = clean_migration(1, 1);
  s[0].status = SpanStatus::kFenced;
  auto open = clean_migration(2, 10);
  open[0].status = SpanStatus::kOpen;
  s.insert(s.end(), open.begin(), open.end());
  TraceAnalytics ta(s);
  EXPECT_EQ(ta.migrations(), 0u);
  EXPECT_EQ(ta.traces_skipped(), 2u);
  EXPECT_DOUBLE_EQ(ta.coverage_min(), 1.0);  // vacuous
  EXPECT_DOUBLE_EQ(ta.coverage_mean(), 1.0);
}

TEST(TraceAnalytics, OpenStageChildSkipsTheWholeMigration) {
  auto s = clean_migration(1, 1);
  s[3].status = SpanStatus::kOpen;  // transfer never closed (ring cut)
  TraceAnalytics ta(s);
  EXPECT_EQ(ta.migrations(), 0u);
  EXPECT_EQ(ta.traces_skipped(), 1u);
}

TEST(TraceAnalytics, RootWithoutStageChildrenIsSkipped) {
  std::vector<SpanRecord> s;
  s.push_back(span(1, 1, 0, "mpvm.migrate", 0.0, 10.0));
  TraceAnalytics ta(s);
  EXPECT_EQ(ta.migrations(), 0u);
  EXPECT_EQ(ta.traces_skipped(), 1u);
}

TEST(TraceAnalytics, AbortedPrecopyUnderOkRootStillCounts) {
  // Pre-copy gave up, protocol fell back to stop-and-copy, migration
  // succeeded: a normal path whose precopy time is real wall time.
  auto s = clean_migration(1, 1);
  s.push_back(
      span(1, 6, 1, "mpvm.precopy", 0.0, 3.0, SpanStatus::kAborted));
  TraceAnalytics ta(s);
  ASSERT_EQ(ta.migrations(), 1u);
  EXPECT_EQ(ta.traces_skipped(), 0u);
  EXPECT_DOUBLE_EQ(ta.paths()[0].stage_total, 13.0);
  ASSERT_NE(ta.stage_histogram("mpvm.precopy"), nullptr);
  EXPECT_EQ(ta.stage_histogram("mpvm.precopy")->count(), 1u);
}

TEST(TraceAnalytics, InstantChildrenAndForeignSpansIgnored) {
  auto s = clean_migration(1, 1);
  SpanRecord ev = span(1, 6, 1, "mpvm.rollback", 5.0, 5.0);
  ev.instant = true;
  s.push_back(ev);
  s.push_back(span(2, 10, 0, "gs.rebalance", 0.0, 1.0));  // not a migration
  TraceAnalytics ta(s);
  EXPECT_EQ(ta.migrations(), 1u);
  EXPECT_EQ(ta.traces_skipped(), 0u);
  EXPECT_DOUBLE_EQ(ta.paths()[0].stage_total, 10.0);
}

TEST(TraceAnalytics, PartialCoverageReported) {
  // Stages cover only 8 of 10 s (a 2 s unattributed gap).
  std::vector<SpanRecord> s;
  s.push_back(span(1, 1, 0, "mpvm.migrate", 0.0, 10.0));
  s.push_back(span(1, 2, 1, "mpvm.freeze", 0.0, 2.0));
  s.push_back(span(1, 3, 1, "mpvm.transfer", 4.0, 10.0));
  TraceAnalytics ta(s);
  ASSERT_EQ(ta.migrations(), 1u);
  EXPECT_DOUBLE_EQ(ta.coverage_min(), 0.8);
  EXPECT_DOUBLE_EQ(ta.coverage_mean(), 0.8);
}

}  // namespace
}  // namespace cpe::obs
