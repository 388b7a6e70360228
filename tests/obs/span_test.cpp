#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/engine.hpp"

namespace cpe::obs {
namespace {

struct SpanTracerTest : ::testing::Test {
  sim::Engine eng;
  SpanTracer tr{eng};
};

TEST_F(SpanTracerTest, MintsFreshTraceForInvalidContext) {
  const SpanId a = tr.begin_span({}, "root.a", "host1");
  const SpanId b = tr.begin_span({}, "root.b", "host1");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  const SpanRecord* ra = tr.find(a);
  const SpanRecord* rb = tr.find(b);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_NE(ra->trace_id, 0u);
  EXPECT_NE(ra->trace_id, rb->trace_id);  // separate roots, separate traces
  EXPECT_EQ(ra->parent_span, 0u);
}

TEST_F(SpanTracerTest, ChildSpansInheritTraceAndParent) {
  const SpanId root = tr.begin_span({}, "mig", "host1");
  const SpanId child = tr.begin_span(tr.context_of(root), "stage", "host1");
  const SpanRecord* rc = tr.find(child);
  ASSERT_NE(rc, nullptr);
  EXPECT_EQ(rc->trace_id, tr.find(root)->trace_id);
  EXPECT_EQ(rc->parent_span, root);
  EXPECT_EQ(tr.by_trace(rc->trace_id).size(), 2u);
}

TEST_F(SpanTracerTest, EndSpanStampsTimeAndStatus) {
  const SpanId s = tr.begin_span({}, "work", "host1");
  eng.schedule_at(2.5, [&] { tr.end_span(s, SpanStatus::kAborted); });
  eng.run();
  const SpanRecord* r = tr.find(s);
  EXPECT_DOUBLE_EQ(r->start, 0.0);
  EXPECT_DOUBLE_EQ(r->end, 2.5);
  EXPECT_DOUBLE_EQ(r->duration(), 2.5);
  EXPECT_EQ(r->status, SpanStatus::kAborted);
}

TEST_F(SpanTracerTest, EventIsInstantAndClosed) {
  const SpanId root = tr.begin_span({}, "mig", "host1");
  const SpanId ev = tr.event(tr.context_of(root), "rollback", "host1");
  const SpanRecord* r = tr.find(ev);
  EXPECT_TRUE(r->instant);
  EXPECT_EQ(r->status, SpanStatus::kOk);
  EXPECT_EQ(r->parent_span, root);
}

TEST_F(SpanTracerTest, AnnotateAndAttrLookup) {
  const SpanId s = tr.begin_span({}, "mig", "host1");
  tr.annotate(s, "task", "t0.2");
  tr.annotate(s, "bytes", "1024");
  const SpanRecord* r = tr.find(s);
  ASSERT_NE(r->attr("task"), nullptr);
  EXPECT_EQ(*r->attr("task"), "t0.2");
  EXPECT_EQ(*r->attr("bytes"), "1024");
  EXPECT_EQ(r->attr("missing"), nullptr);
}

TEST_F(SpanTracerTest, LamportClockAdvancesOnSendAndReceive) {
  EXPECT_EQ(tr.clock("host1"), 0u);
  EXPECT_EQ(tr.on_send("host1"), 1u);
  EXPECT_EQ(tr.on_send("host1"), 2u);
  // Receive with a stamp ahead of the local clock jumps past it...
  tr.on_receive("host2", 2);
  EXPECT_EQ(tr.clock("host2"), 3u);
  // ...and a stale stamp still ticks the clock forward.
  tr.on_receive("host2", 1);
  EXPECT_EQ(tr.clock("host2"), 4u);
  EXPECT_EQ(tr.clock("host1"), 2u);  // per-host, independent
}

TEST_F(SpanTracerTest, SpansSnapshotLamportClock) {
  (void)tr.on_send("host1");
  const SpanId s = tr.begin_span({}, "mig", "host1");
  (void)tr.on_send("host1");
  (void)tr.on_send("host1");
  tr.end_span(s);
  const SpanRecord* r = tr.find(s);
  EXPECT_EQ(r->lamport_start, 1u);
  EXPECT_EQ(r->lamport_end, 3u);
}

TEST_F(SpanTracerTest, RingEvictsOldestAndCountsDropped) {
  tr.set_capacity(4);
  std::vector<SpanId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(tr.begin_span({}, "s", "h"));
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);
  EXPECT_EQ(tr.find(ids[0]), nullptr);  // fell off the ring
  EXPECT_EQ(tr.find(ids[1]), nullptr);
  ASSERT_NE(tr.find(ids[5]), nullptr);
  // Ending an evicted span is a harmless no-op.
  tr.end_span(ids[0], SpanStatus::kOk);
}

TEST_F(SpanTracerTest, ClearForgetsOldIdsAndFindsNewSpans) {
  const SpanId old = tr.begin_span({}, "old", "h");
  tr.clear();
  EXPECT_EQ(tr.find(old), nullptr);  // empty ring
  const SpanId fresh = tr.begin_span({}, "fresh", "h");
  EXPECT_NE(fresh, old);  // ids keep counting across a clear
  const SpanRecord* r = tr.find(fresh);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->name, "fresh");
  EXPECT_EQ(tr.find(old), nullptr);  // older than the ring's oldest span
}

TEST_F(SpanTracerTest, IdZeroAndIdsPastTheNewestFindNothing) {
  EXPECT_EQ(tr.find(0), nullptr);  // empty ring
  EXPECT_EQ(tr.find(1), nullptr);
  const SpanId a = tr.begin_span({}, "a", "h");
  const SpanId b = tr.begin_span({}, "b", "h");
  EXPECT_EQ(tr.find(0), nullptr);  // 0 is never minted
  EXPECT_EQ(tr.find(b + 1), nullptr);
  EXPECT_EQ(tr.find(b + 1000), nullptr);
  ASSERT_NE(tr.find(a), nullptr);
  ASSERT_NE(tr.find(b), nullptr);
  EXPECT_EQ(tr.find(a)->name, "a");
  EXPECT_EQ(tr.find(b)->name, "b");
}

TEST_F(SpanTracerTest, SetCapacityHasDocumentedFloor) {
  tr.set_capacity(0);
  EXPECT_GE(tr.capacity(), 2u);
  (void)tr.begin_span({}, "a", "h");
  (void)tr.begin_span({}, "b", "h");
  (void)tr.begin_span({}, "c", "h");
  EXPECT_EQ(tr.size(), tr.capacity());
  EXPECT_GT(tr.dropped(), 0u);
}

TEST_F(SpanTracerTest, ChromeTraceShape) {
  const SpanId root = tr.begin_span({}, "mpvm.migrate", "host1", 7);
  (void)tr.event(tr.context_of(root), "pvm.deliver", "host2", 7);
  tr.end_span(root);
  std::ostringstream os;
  write_chrome_trace(tr, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(out.find("host1"), std::string::npos);
  EXPECT_NE(out.find("host2"), std::string::npos);
}

TEST_F(SpanTracerTest, ChromeTraceVectorOverloadMatchesTracer) {
  const SpanId root = tr.begin_span({}, "mpvm.migrate", "host1");
  tr.end_span(root);
  std::ostringstream from_tracer;
  write_chrome_trace(tr, from_tracer);
  const std::vector<SpanRecord> copy(tr.spans().begin(), tr.spans().end());
  std::ostringstream from_vector;
  write_chrome_trace(copy, from_vector);
  EXPECT_EQ(from_tracer.str(), from_vector.str());
}

}  // namespace
}  // namespace cpe::obs
