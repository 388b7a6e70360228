// ServiceTailSweep: arrival profile x placement policy x fault plan x seed.
//
// Every cell runs one open-loop serving scenario (svc::run_scenario) on a
// small cluster and asserts the invariants that must hold under ANY
// composition of the axes:
//   * exactly-once resolution — every issued request lands in exactly one of
//     {completed, timeouts, rejected} and nothing is pending after the drain
//     grace;
//   * no dangling request spans — the TraceAuditor's request-completeness
//     invariant (obs/audit.hpp, invariant 9) holds over the sampled traces;
//   * the whole trace audit is clean (send-before-receive, freeze fencing,
//     migration spans, ... — invariants 1-8 keep holding with svc on top).
//
// Cells are deliberately small (seconds of virtual time, thousands of
// requests) so the sweep stays fast; bench_service_tail carries the scale
// and tail-latency gates.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "svc/scenario.hpp"

namespace cpe::svc {
namespace {

struct Cell {
  const char* tag;
  ArrivalKind arrival;
  RouteKind route;
  load::PolicyKind policy;
  bool precopy;
  FaultKind fault;
  std::uint64_t seed;

  Cell(const char* tag_, ArrivalKind a, RouteKind r, load::PolicyKind p,
       bool pre, FaultKind f, std::uint64_t s)
      : tag(tag_), arrival(a), route(r), policy(p), precopy(pre), fault(f),
        seed(s) {}
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return info.param.tag + std::string("_seed") +
         std::to_string(info.param.seed);
}

class ServiceTailSweep : public ::testing::TestWithParam<Cell> {};

TEST_P(ServiceTailSweep, ExactlyOnceAndCleanAudit) {
  const Cell& c = GetParam();

  ScenarioRow row;
  row.name = std::string("sweep_") + c.tag;
  row.hosts = 6;
  row.frontends = 1;
  row.workers = 8;
  row.arrival = c.arrival;
  row.rate = 120.0;
  row.amplitude = 0.6;
  row.period = 40.0;  // one full diurnal cycle inside the cell
  row.route = c.route;
  row.service_demand = 15e-3;
  row.timeout = 1.0;
  row.policy = c.policy;
  row.precopy = c.precopy;
  row.queue_weight = 0.25;
  row.poll_interval = 1.0;
  row.min_residency = 3.0;
  row.fault = c.fault;
  row.storm_hosts = 2;
  row.storm_jobs = 6;
  row.storm_period = 10.0;
  row.fault_start = 5.0;
  row.seed = c.seed;
  row.horizon = 40.0;

  const ScenarioResult r = run_scenario(row);

  EXPECT_GT(r.issued, 1000u) << "open loop under-generated";
  EXPECT_TRUE(r.exactly_once)
      << "issued=" << r.issued << " completed=" << r.completed
      << " timeouts=" << r.timeouts << " rejected=" << r.rejected
      << " pending=" << r.pending;
  EXPECT_EQ(r.pending, 0u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  EXPECT_GT(r.spans, 0u);
  if (c.fault != FaultKind::kNone) {
    EXPECT_GT(r.faults_injected, 0u);
  }
  // The serving layer must never trick the placement layer into thrash.
  EXPECT_EQ(r.thrash_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ServiceTailSweep,
    ::testing::Values(
        Cell("poisson_none_quiet", ArrivalKind::kPoisson,
             RouteKind::kRoundRobin, load::PolicyKind::kNone, false,
             FaultKind::kNone, 1),
        Cell("poisson_bestfit_storm", ArrivalKind::kPoisson,
             RouteKind::kLeastOutstanding, load::PolicyKind::kBestFit, false,
             FaultKind::kStorm, 1),
        Cell("poisson_bestfit_storm", ArrivalKind::kPoisson,
             RouteKind::kLeastOutstanding, load::PolicyKind::kBestFit, false,
             FaultKind::kStorm, 2),
        Cell("poisson_bestfit_precopy_storm", ArrivalKind::kPoisson,
             RouteKind::kLeastOutstanding, load::PolicyKind::kBestFit, true,
             FaultKind::kStorm, 1),
        Cell("poisson_worksteal_crash", ArrivalKind::kPoisson,
             RouteKind::kRoundRobin, load::PolicyKind::kWorkSteal, false,
             FaultKind::kCrash, 1),
        Cell("poisson_swap_freeze", ArrivalKind::kPoisson,
             RouteKind::kRoundRobin, load::PolicyKind::kDestinationSwap,
             false, FaultKind::kFreeze, 1),
        Cell("poisson_worksteal_storm", ArrivalKind::kPoisson,
             RouteKind::kLeastOutstanding, load::PolicyKind::kWorkSteal,
             false, FaultKind::kStorm, 2),
        Cell("diurnal_bestfit_quiet", ArrivalKind::kDiurnal,
             RouteKind::kLeastOutstanding, load::PolicyKind::kBestFit, false,
             FaultKind::kNone, 1),
        Cell("diurnal_bestfit_storm", ArrivalKind::kDiurnal,
             RouteKind::kLeastOutstanding, load::PolicyKind::kBestFit, false,
             FaultKind::kStorm, 3),
        Cell("diurnal_threshold_flap", ArrivalKind::kDiurnal,
             RouteKind::kRoundRobin, load::PolicyKind::kThreshold, false,
             FaultKind::kFlap, 1)),
    cell_name);

}  // namespace
}  // namespace cpe::svc
