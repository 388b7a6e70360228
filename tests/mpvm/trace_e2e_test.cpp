// End-to-end causal tracing through the MPVM migration protocol: one
// decision roots one trace, the four stages hang off it in order, failures
// leave rollback/fenced evidence, and the TraceAuditor signs off on all of
// it (DESIGN.md §10).
#include <gtest/gtest.h>

#include "mpvm/mpvm.hpp"
#include "obs/audit.hpp"
#include "support/pvm_fixture.hpp"

namespace cpe::mpvm {
namespace {

using pvm::Task;

struct MpvmTraceTest : cpe::test::WorknetFixture {
  Mpvm mpvm{vm};

  void register_worker(std::size_t data_bytes = 100'000) {
    vm.register_program("worker", [data_bytes](Task& t) -> sim::Co<void> {
      t.process().image().data_bytes = data_bytes;
      co_await t.compute(20.0);
    });
  }

  const obs::SpanRecord* stage_in(obs::TraceId trace,
                                  std::string_view name) const {
    for (const obs::SpanRecord* s : vm.spans().by_trace(trace))
      if (s->name == name) return s;
    return nullptr;
  }
};

TEST_F(MpvmTraceTest, MigrationProducesOneTraceWithOrderedStages) {
  register_worker();
  auto driver = [&]() -> sim::Proc {
    auto tids = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 5.0);
    MigrationStats s = co_await mpvm.migrate(tids[0], host2);
    EXPECT_TRUE(s.ok);
  };
  sim::spawn(eng, driver());
  run_all();

  const obs::SpanRecord* root = vm.spans().find_named("mpvm.migrate");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->status, obs::SpanStatus::kOk);
  ASSERT_NE(root->attr("task"), nullptr);
  EXPECT_EQ(*root->attr("from"), "host1");
  EXPECT_EQ(*root->attr("to"), "host2");

  // All four stages, parented under the root, in causal order, on the
  // right hosts (restart happens at the destination).
  const obs::SpanRecord* prev = nullptr;
  for (const char* name :
       {"mpvm.freeze", "mpvm.flush", "mpvm.transfer", "mpvm.restart"}) {
    const obs::SpanRecord* s = stage_in(root->trace_id, name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->parent_span, root->span_id) << name;
    EXPECT_EQ(s->status, obs::SpanStatus::kOk) << name;
    if (prev != nullptr) {
      EXPECT_GE(s->start, prev->start) << name;
    }
    prev = s;
  }
  EXPECT_EQ(stage_in(root->trace_id, "mpvm.freeze")->host, "host1");
  EXPECT_EQ(stage_in(root->trace_id, "mpvm.restart")->host, "host2");

  // One migration, one trace: every mpvm.* span belongs to it.
  for (const auto& s : vm.spans().spans()) {
    if (s.name.rfind("mpvm.", 0) == 0) {
      EXPECT_EQ(s.trace_id, root->trace_id);
    }
  }

  obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

TEST_F(MpvmTraceTest, CallerContextRootsTheMigrationSpan) {
  register_worker();
  obs::SpanTracer& sp = vm.spans();
  obs::SpanId decision = 0;
  auto driver = [&]() -> sim::Proc {
    auto tids = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 5.0);
    decision = sp.begin_span({}, "gs.vacate", "gs");
    (void)co_await mpvm.migrate(tids[0], host2, std::nullopt,
                                sp.context_of(decision));
    sp.end_span(decision);
  };
  sim::spawn(eng, driver());
  run_all();

  const obs::SpanRecord* root = sp.find_named("mpvm.migrate");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_span, decision);
  EXPECT_EQ(root->trace_id, sp.find(decision)->trace_id);
}

TEST_F(MpvmTraceTest, AbortedMigrationEndsTraceWithRollback) {
  register_worker(5'000'000);  // ~4 s on the wire: the crash lands mid-copy
  auto driver = [&]() -> sim::Proc {
    auto tids = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 5.0);
    MigrationStats s = co_await mpvm.migrate(tids[0], host2);
    EXPECT_FALSE(s.ok);
  };
  sim::spawn(eng, driver());
  eng.schedule_at(6.0, [&] { host2.crash(); });
  run_all();

  const obs::SpanRecord* root = vm.spans().find_named("mpvm.migrate");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->status, obs::SpanStatus::kAborted);
  const obs::SpanRecord* rollback = stage_in(root->trace_id, "mpvm.rollback");
  ASSERT_NE(rollback, nullptr);
  EXPECT_TRUE(rollback->instant);
  EXPECT_NE(rollback->attr("reason"), nullptr);

  obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

TEST_F(MpvmTraceTest, FencedCommandLeavesFencedSpan) {
  register_worker();
  auto fence = std::make_shared<pvm::MigrationFence>();
  fence->raise(5);
  mpvm.set_fence(fence);
  bool threw = false;
  auto driver = [&]() -> sim::Proc {
    auto tids = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 5.0);
    try {
      (void)co_await mpvm.migrate(tids[0], host2, /*epoch=*/3);
    } catch (const MigrationError&) {
      threw = true;
    }
  };
  sim::spawn(eng, driver());
  run_all();

  EXPECT_TRUE(threw);
  const obs::SpanRecord* root = vm.spans().find_named("mpvm.migrate");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->status, obs::SpanStatus::kFenced);
  ASSERT_NE(root->attr("floor"), nullptr);
  EXPECT_EQ(*root->attr("floor"), "5");

  obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

}  // namespace
}  // namespace cpe::mpvm
