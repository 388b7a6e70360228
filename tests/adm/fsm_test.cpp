#include "adm/fsm.hpp"

#include <gtest/gtest.h>

#include "obs/span.hpp"
#include "sim/engine.hpp"

namespace cpe::adm {
namespace {

struct FsmTest : ::testing::Test {
  sim::Engine eng;
  obs::SpanTracer spans{eng};

  Fsm make_opt_fsm() {
    // The Figure 4 structure: compute / redistribute / inactive / done.
    Fsm f(spans, "host1", 7, 0, "computing");
    f.add_state("redistributing");
    f.add_state("inactive");
    f.add_state("done");
    f.allow("computing", "redistributing");
    f.allow("redistributing", "computing");
    f.allow("redistributing", "inactive");
    f.allow("inactive", "redistributing");
    f.allow("computing", "done");
    return f;
  }
};

TEST_F(FsmTest, StartsInInitialState) {
  Fsm f = make_opt_fsm();
  EXPECT_EQ(f.state(), "computing");
  EXPECT_TRUE(f.path().empty());
}

TEST_F(FsmTest, LegalTransitionsSucceed) {
  Fsm f = make_opt_fsm();
  f.transition("redistributing");
  f.transition("inactive");
  f.transition("redistributing");
  f.transition("computing");
  f.transition("done");
  EXPECT_EQ(f.state(), "done");
  EXPECT_EQ(f.path().size(), 5u);
}

TEST_F(FsmTest, IllegalTransitionThrows) {
  Fsm f = make_opt_fsm();
  EXPECT_THROW(f.transition("inactive"), Error);  // computing -/-> inactive
  EXPECT_EQ(f.state(), "computing");              // unchanged after failure
}

TEST_F(FsmTest, UnknownStateInAllowThrows) {
  Fsm f = make_opt_fsm();
  EXPECT_THROW(f.allow("computing", "nirvana"), ContractError);
}

TEST_F(FsmTest, CanTransitionQueries) {
  Fsm f = make_opt_fsm();
  EXPECT_TRUE(f.can_transition("redistributing"));
  EXPECT_FALSE(f.can_transition("inactive"));
}

TEST_F(FsmTest, TransitionsAreTraced) {
  Fsm f = make_opt_fsm();
  f.transition("redistributing");
  ASSERT_EQ(spans.size(), 1u);
  const obs::SpanRecord& s = spans.spans().front();
  EXPECT_EQ(s.name, "adm.fsm");
  EXPECT_TRUE(s.instant);
  EXPECT_EQ(s.status, obs::SpanStatus::kOk);
  EXPECT_EQ(s.host, "host1");
  EXPECT_EQ(s.track, 7);
  EXPECT_EQ(*s.attr("slave"), "0");
  EXPECT_EQ(*s.attr("from"), "computing");
  EXPECT_EQ(*s.attr("to"), "redistributing");

  // A transition made inside a trace joins it.
  const obs::TraceContext ctx = spans.start_trace();
  f.transition("inactive", ctx);
  EXPECT_EQ(spans.spans().back().trace_id, ctx.trace_id);
}

TEST_F(FsmTest, WithdrawRejoinCycle) {
  // A slave can cycle through inactivity repeatedly (owner leaves/returns).
  Fsm f = make_opt_fsm();
  for (int i = 0; i < 3; ++i) {
    f.transition("redistributing");
    f.transition("inactive");
    f.transition("redistributing");
    f.transition("computing");
  }
  EXPECT_EQ(f.state(), "computing");
  EXPECT_EQ(spans.size(), 12u);
}

}  // namespace
}  // namespace cpe::adm
