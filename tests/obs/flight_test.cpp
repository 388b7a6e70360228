// Flight recorder: exactly-one-dump discipline, file self-containment, and
// manual (FaultPlan-style) triggers.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/analytics.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"

namespace cpe::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class FlightFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("flight_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  FlightOptions opts() {
    FlightOptions o;
    o.dir = dir_.string();
    return o;
  }

  std::filesystem::path dir_;
  sim::Engine eng;
  MetricsRegistry reg{&eng};
};

TEST_F(FlightFixture, ViolationProducesExactlyOneDump) {
  AnalyticsOptions aopt;
  aopt.window = 1.0;
  Analytics an(eng, reg, aopt);
  an.add_rule("rate(t.ops) < 1");  // breached every window below
  FlightRecorder rec(an, nullptr, opts());  // max_dumps defaults to 1

  Counter& c = reg.counter("t.ops");
  an.start(/*horizon=*/10.0);
  for (int i = 0; i < 10; ++i)
    eng.schedule_at(i + 0.5, [&c] { c.inc(100); });
  eng.run();

  EXPECT_GT(an.violations().size(), 1u);  // sustained breach...
  EXPECT_EQ(rec.dumps(), 1u);             // ...but one dump only
  EXPECT_EQ(rec.suppressed(), an.violations().size() - 1);
  ASSERT_EQ(rec.files().size(), 1u);

  const std::string doc = slurp(rec.files()[0]);
  EXPECT_NE(doc.find("\"flight\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"reason\": \"slo\""), std::string::npos);
  EXPECT_NE(doc.find("rate(t.ops) < 1"), std::string::npos);
  EXPECT_NE(doc.find("\"series\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"counter\""), std::string::npos);
  // The dump froze the violation that fired it, not a null.
  EXPECT_EQ(doc.find("\"violation\": null"), std::string::npos);
}

TEST_F(FlightFixture, ManualTriggerEmbedsSpanTail) {
  Analytics an(eng, reg);
  an.track_gauge("t.depth");
  reg.gauge("t.depth").set(7.0);
  eng.schedule_at(1.0, [] {});
  eng.run();
  an.sample_now();

  SpanTracer spans(eng);
  const SpanId root = spans.begin_span({}, "mpvm.migrate", "hostA");
  spans.end_span(root, SpanStatus::kOk);

  FlightRecorder rec(an, &spans, opts());
  EXPECT_TRUE(rec.trigger("fault:host-freeze"));
  ASSERT_EQ(rec.files().size(), 1u);
  const std::string doc = slurp(rec.files()[0]);
  EXPECT_NE(doc.find("\"reason\": \"fault:host-freeze\""), std::string::npos);
  EXPECT_NE(doc.find("\"violation\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"mpvm.migrate\""), std::string::npos);
  EXPECT_NE(doc.find("\"host\":\"hostA\""), std::string::npos);
  EXPECT_NE(doc.find("\"spans_dropped\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"value\":7"), std::string::npos);  // the gauge window
  // Capped: a second trigger is suppressed.
  EXPECT_FALSE(rec.trigger("fault:again"));
  EXPECT_EQ(rec.suppressed(), 1u);
}

TEST_F(FlightFixture, CooldownSpacesDumpsInVirtualTime) {
  Analytics an(eng, reg);
  FlightOptions o = opts();
  o.max_dumps = 8;
  o.cooldown = 5.0;
  FlightRecorder rec(an, nullptr, o);

  EXPECT_TRUE(rec.trigger("one"));       // t = 0
  EXPECT_FALSE(rec.trigger("too-soon")); // still t = 0
  eng.schedule_at(5.0, [] {});
  eng.run();
  EXPECT_TRUE(rec.trigger("two"));       // t = 5: cooldown satisfied
  EXPECT_EQ(rec.dumps(), 2u);
  EXPECT_EQ(rec.suppressed(), 1u);
  EXPECT_EQ(rec.files().size(), 2u);
  EXPECT_NE(rec.files()[0], rec.files()[1]);
}

TEST_F(FlightFixture, HookDetachesWithRecorderLifetime) {
  Analytics an(eng, reg);
  an.add_rule("rate(t.ops) < 1");
  {
    FlightRecorder rec(an, nullptr, opts());
  }  // destroyed: hook removed
  reg.counter("t.ops").inc(50);
  eng.schedule_at(1.0, [] {});
  eng.run();
  an.sample_now();  // fires a violation into a dead recorder? no: no crash
  EXPECT_FALSE(an.violations().empty());
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

}  // namespace
}  // namespace cpe::obs
