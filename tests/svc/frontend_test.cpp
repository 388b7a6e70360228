#include "svc/frontend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "fault/fault.hpp"
#include "net/network.hpp"
#include "obs/audit.hpp"
#include "svc/arrival.hpp"

namespace cpe::svc {
namespace {

struct SvcEnv : ::testing::Test {
  sim::Engine eng;
  net::Network net{eng};
  os::Host fe{eng, net, os::HostConfig("fe", "HPPA", 1.0)};
  os::Host w0{eng, net, os::HostConfig("w0", "HPPA", 1.0)};
  os::Host w1{eng, net, os::HostConfig("w1", "HPPA", 1.0)};
  os::Host w2{eng, net, os::HostConfig("w2", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};

  SvcEnv() {
    vm.add_host(fe);
    vm.add_host(w0);
    vm.add_host(w1);
    vm.add_host(w2);
  }

  [[nodiscard]] std::set<std::int64_t> serve_tracks() const {
    std::set<std::int64_t> tracks;
    for (const obs::SpanRecord& s : vm.spans().spans())
      if (s.name == "svc.serve") tracks.insert(s.track);
    return tracks;
  }
};

TEST_F(SvcEnv, OpenLoopRunResolvesEveryRequestExactlyOnce) {
  FrontendOptions opt;
  opt.route = RouteKind::kRoundRobin;
  opt.service_demand = 5e-3;
  opt.timeout = 1.0;
  Frontend front(vm, std::make_unique<PoissonArrivals>(150.0, 11), opt);
  front.launch(fe, {&w0, &w1, &w2}, 4.0);
  eng.run_until(4.0 + opt.timeout + 10.0);

  EXPECT_GT(front.issued(), 300u);
  EXPECT_EQ(front.issued(),
            front.completed() + front.timeouts() + front.rejected());
  EXPECT_EQ(front.pending_count(), 0u);
  EXPECT_EQ(front.rejected(), 0u);
  EXPECT_EQ(vm.metrics().gauge("svc.requests_inflight").value(), 0.0);
  EXPECT_EQ(vm.metrics().histogram("svc.latency").count(), front.issued());
  EXPECT_EQ(vm.metrics().counter("svc.completed").value(), front.completed());

  // Round-robin over three healthy workers exercises all of them.
  EXPECT_EQ(serve_tracks().size(), 3u);

  const obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

TEST_F(SvcEnv, OverloadedWorkerTimesOutCensored) {
  FrontendOptions opt;
  opt.route = RouteKind::kRoundRobin;
  opt.service_demand = 30.0;  // far beyond the deadline
  opt.timeout = 0.25;
  Frontend front(vm, std::make_unique<PoissonArrivals>(40.0, 5), opt);
  front.launch(fe, {&w0}, 2.0);
  eng.run_until(2.0 + opt.timeout + 5.0);

  EXPECT_GT(front.issued(), 40u);
  EXPECT_EQ(front.completed(), 0u);
  EXPECT_EQ(front.timeouts(), front.issued());
  EXPECT_EQ(front.pending_count(), 0u);
  // Censored observations: the whole latency distribution sits at the
  // timeout bound instead of vanishing.
  EXPECT_EQ(vm.metrics().histogram("svc.latency").count(), front.issued());
  EXPECT_GE(vm.metrics().histogram("svc.latency").quantile(0.5), 0.2);

  // Aborted request roots carry the timeout reason; the auditor accepts
  // serve legs still open under them (the client gave up, invariant 9).
  std::size_t aborted = 0;
  for (const obs::SpanRecord& s : vm.spans().spans())
    if (s.name == "svc.request") {
      ASSERT_EQ(s.status, obs::SpanStatus::kAborted);
      ASSERT_NE(s.attr("timeout"), nullptr);
      ++aborted;
    }
  EXPECT_GT(aborted, 0u);
  const obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

TEST_F(SvcEnv, DeadWorkerHostsRejectNewRequests) {
  FrontendOptions opt;
  opt.service_demand = 2e-3;
  opt.timeout = 0.5;
  Frontend front(vm, std::make_unique<PoissonArrivals>(60.0, 8), opt);
  front.launch(fe, {&w0, &w1}, 4.0);
  // Spawning the frontend + workers costs ~1 virtual second of daemon RPCs
  // and image pushes; crash well after that so some requests complete first.
  fault::FaultPlan plan(eng);
  plan.crash_at(w0, 2.5);
  plan.crash_at(w1, 2.5);
  eng.run_until(4.0 + opt.timeout + 10.0);

  EXPECT_GT(front.rejected(), 0u);
  EXPECT_GT(front.completed(), 0u);
  EXPECT_EQ(front.issued(),
            front.completed() + front.timeouts() + front.rejected());
  EXPECT_EQ(front.pending_count(), 0u);
  const obs::TraceAuditor auditor(vm.spans());
  EXPECT_TRUE(auditor.ok()) << obs::TraceAuditor::format(auditor.audit());
}

TEST_F(SvcEnv, InflightGaugeTracksOutstandingRequests) {
  FrontendOptions opt;
  opt.service_demand = 0.5;  // slow enough to pile up
  opt.timeout = 5.0;
  Frontend front(vm, std::make_unique<PoissonArrivals>(30.0, 2), opt);
  front.launch(fe, {&w0, &w1}, 2.0);
  double mid_run = 0;
  eng.schedule_at(1.5, [&] {
    mid_run = vm.metrics().gauge("svc.requests_inflight").value();
  });
  eng.run_until(2.0 + opt.timeout + 10.0);
  EXPECT_GT(mid_run, 0.0);
  EXPECT_EQ(vm.metrics().gauge("svc.requests_inflight").value(), 0.0);
  EXPECT_GT(front.outstanding_on(w0) + front.outstanding_on(w1), -1.0);
}

}  // namespace
}  // namespace cpe::svc
