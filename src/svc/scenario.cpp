#include "svc/scenario.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "fault/fault.hpp"
#include "gs/scheduler.hpp"
#include "load/exchange.hpp"
#include "mpvm/mpvm.hpp"
#include "net/network.hpp"
#include "obs/analytics.hpp"
#include "obs/audit.hpp"
#include "obs/flight.hpp"
#include "os/host.hpp"
#include "pvm/system.hpp"
#include "sim/assert.hpp"
#include "sim/engine.hpp"

namespace cpe::svc {

const char* to_string(ArrivalKind k) noexcept {
  switch (k) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDiurnal:
      return "diurnal";
  }
  return "?";
}

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kStorm:
      return "storm";
    case FaultKind::kFlap:
      return "flap";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kFreeze:
      return "freeze";
  }
  return "?";
}

namespace {

std::unique_ptr<ArrivalProcess> make_arrivals(const ScenarioRow& row,
                                              std::uint64_t seed) {
  switch (row.arrival) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(row.rate, seed);
    case ArrivalKind::kDiurnal:
      return std::make_unique<DiurnalArrivals>(row.rate, row.amplitude,
                                               row.period, seed);
  }
  return nullptr;
}

/// Owner-reclamation storm: every `storm_period` a different window of
/// `storm_hosts` worker hosts acquires `storm_jobs` owner jobs (processor
/// sharing slows the workers there); the previous window's hosts are
/// released.  Deliberately external-job churn, not GS owner events: policy
/// `none` must feel the full pain — vacate-on-reclaim would rescue its
/// workers and flatten the comparison the bench gates on.
void arm_storm(fault::FaultPlan& plan, const ScenarioRow& row,
               const std::vector<os::Host*>& worker_hosts) {
  const int n = static_cast<int>(worker_hosts.size());
  if (n == 0 || row.storm_hosts <= 0) return;
  const int per = std::min(row.storm_hosts, n);
  int k = 0;
  for (sim::Time t = row.fault_start; t < row.horizon;
       t += row.storm_period, ++k) {
    plan.trigger_at(t, "storm window " + std::to_string(k), [=]() {
      for (int j = 0; j < per; ++j) {
        const int prev = ((k - 1) * per + j) % n;
        const int cur = (k * per + j) % n;
        if (k > 0) {
          worker_hosts[static_cast<std::size_t>(prev)]
              ->cpu()
              .set_external_jobs(0);
        }
        worker_hosts[static_cast<std::size_t>(cur)]->cpu().set_external_jobs(
            row.storm_jobs);
      }
    });
  }
  // Owners go home at the horizon so the drain grace runs on quiet hosts.
  plan.trigger_at(row.horizon, "storm end", [=]() {
    for (os::Host* h : worker_hosts) h->cpu().set_external_jobs(0);
  });
}

}  // namespace

ScenarioResult run_scenario(const ScenarioRow& row,
                            std::vector<obs::SpanRecord>* spans_out) {
  CPE_EXPECTS(row.frontends >= 1 &&
              "ScenarioRow.frontends must be >= 1 shards");
  CPE_EXPECTS(row.hosts > row.frontends &&
              "ScenarioRow needs at least one non-frontend worker host");
  CPE_EXPECTS(row.workers >= 1 && "ScenarioRow.workers must be >= 1");
  CPE_EXPECTS(row.horizon > 0 && "ScenarioRow.horizon must be > 0");

  sim::Engine eng;
  net::EthernetParams eparams;
  eparams.bandwidth_bps = row.bandwidth_bps;
  net::Network net(eng, eparams, {}, row.seed);

  std::vector<std::unique_ptr<os::Host>> hosts;
  hosts.reserve(static_cast<std::size_t>(row.hosts));
  for (int i = 0; i < row.hosts; ++i) {
    const std::string name = (i < row.frontends ? "fe" : "w") +
                             std::to_string(i < row.frontends
                                                ? i
                                                : i - row.frontends);
    hosts.push_back(
        std::make_unique<os::Host>(eng, net, os::HostConfig(name, "HPPA", 1.0)));
  }
  pvm::PvmSystem vm(eng, net);
  for (auto& h : hosts) vm.add_host(*h);

  mpvm::Mpvm mpvm(vm);
  mpvm::MpvmTuning tuning;
  tuning.precopy = row.precopy;
  mpvm.set_tuning(tuning);

  gs::GsPolicy pol;
  pol.placement = row.policy;
  pol.poll_interval = row.poll_interval;
  pol.load_threshold = row.load_threshold;
  pol.min_residency = row.min_residency;
  pol.queue_weight = row.queue_weight;
  pol.placement_seed = row.seed * 0x9e3779b9u + 1;
  gs::GlobalScheduler gs(vm, pol);
  gs.attach(mpvm);
  load::ExchangePolicy xp;
  xp.seed = row.seed * 0x85ebca6bu + 2;
  load::LoadExchange exchange(vm, xp);
  gs.attach(exchange, *hosts[0]);

  // Frontend shards: one per frontend host; workers dealt round-robin over
  // the worker hosts, round-robin over the shards.
  std::vector<os::Host*> worker_hosts;
  for (int i = row.frontends; i < row.hosts; ++i)
    worker_hosts.push_back(hosts[static_cast<std::size_t>(i)].get());

  std::vector<std::unique_ptr<Frontend>> fronts;
  std::vector<std::vector<os::Host*>> shard_hosts(
      static_cast<std::size_t>(row.frontends));
  for (int j = 0; j < row.workers; ++j) {
    shard_hosts[static_cast<std::size_t>(j % row.frontends)].push_back(
        worker_hosts[static_cast<std::size_t>(j) % worker_hosts.size()]);
  }
  for (int f = 0; f < row.frontends; ++f) {
    FrontendOptions fo;
    fo.route = row.route;
    fo.timeout = row.timeout;
    fo.service_demand = row.service_demand;
    fo.sample_every = row.sample_every;
    fo.request_bytes = row.request_bytes;
    fo.worker_image_bytes = row.worker_image_bytes;
    fo.seed = row.seed * 0xc2b2ae35u + 17 + static_cast<std::uint64_t>(f);
    fronts.push_back(std::make_unique<Frontend>(
        vm, make_arrivals(row, row.seed + static_cast<std::uint64_t>(f) * 101),
        fo));
  }
  // The GS's queueing-pressure feed: outstanding requests per host, summed
  // across shards (HostLoadView::outstanding, satellite of DESIGN.md §15).
  gs.set_pressure_source([&fronts](const os::Host& h) {
    double sum = 0;
    for (const auto& f : fronts) sum += f->outstanding_on(h);
    return sum;
  });

  obs::AnalyticsOptions aopt;  // the default 1 s windows
  aopt.ring_windows = row.ring_windows;
  obs::Analytics an(eng, vm.metrics(), aopt);
  track_service_metrics(an);
  for (const std::string& rule : row.slo_rules) an.add_rule(rule);
  // Constructed inside the run on purpose: the recorder deregisters from
  // the Analytics on destruction, so it must not outlive it.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (row.arm_flight_recorder) {
    obs::FlightOptions fo;  // dumps land in the working directory
    fo.prefix = "flight_" + row.name;
    fo.max_dumps = 1;
    recorder = std::make_unique<obs::FlightRecorder>(an, &vm.spans(), fo);
  }

  fault::FaultPlan plan(eng, row.seed * 0x27d4eb2fu + 5);
  switch (row.fault) {
    case FaultKind::kNone:
      break;
    case FaultKind::kStorm:
      arm_storm(plan, row, worker_hosts);
      break;
    case FaultKind::kFlap: {
      const std::size_t island = std::max<std::size_t>(
          1, worker_hosts.size() / 4);
      plan.flap_links(net.ethernet(),
                      std::span<os::Host* const>(worker_hosts.data(), island),
                      row.fault_start, row.storm_period * 0.25,
                      row.storm_period, row.horizon);
      break;
    }
    case FaultKind::kCrash:
      plan.crash_at(*worker_hosts[0], row.fault_start);
      plan.recover_at(*worker_hosts[0],
                      row.fault_start + row.storm_period);
      break;
    case FaultKind::kFreeze:
      for (sim::Time t = row.fault_start; t < row.horizon;
           t += row.storm_period) {
        plan.freeze_at(*worker_hosts[worker_hosts.size() / 2], t,
                       row.storm_period * 0.2);
      }
      break;
  }

  for (int f = 0; f < row.frontends; ++f) {
    fronts[static_cast<std::size_t>(f)]->launch(
        *hosts[static_cast<std::size_t>(f)],
        shard_hosts[static_cast<std::size_t>(f)], row.horizon);
  }
  exchange.start(row.horizon);
  gs.start_monitoring(row.horizon);
  an.start(row.horizon);

  // Drain grace: the last request issued at the horizon must be able to
  // time out, and any migration ordered just before the cutoff must
  // resolve, before we read the tallies.  Day-scale runs legitimately
  // exceed the engine's default runaway budget (per-second analytics
  // windows, gossip, and load polls dominate), so scale the budget with
  // the horizon instead of relying on the 500M-event default.
  const auto budget = std::max<std::size_t>(
      sim::Engine::kDefaultEventBudget,
      static_cast<std::size_t>(row.horizon) * 100'000);
  eng.run_until(row.horizon + row.timeout + 45.0, budget);

  ScenarioResult r;
  r.name = row.name;
  r.policy = to_string(row.policy);
  for (const auto& f : fronts) {
    r.issued += f->issued();
    r.completed += f->completed();
    r.timeouts += f->timeouts();
    r.rejected += f->rejected();
    r.late += f->late();
    r.pending += f->pending_count();
  }
  r.exactly_once =
      r.pending == 0 && r.issued == r.completed + r.timeouts + r.rejected;
  r.requests_per_vday =
      static_cast<double>(r.issued) * 86400.0 / row.horizon;

  obs::Histogram& lat = vm.metrics().histogram("svc.latency");
  obs::Histogram& qw = vm.metrics().histogram("svc.queue_wait");
  r.latency_p50 = lat.quantile(0.50);
  r.latency_p95 = lat.quantile(0.95);
  r.latency_p99 = lat.quantile(0.99);
  r.queue_wait_p99 = qw.quantile(0.99);

  r.migrations = mpvm.history().size();
  double freeze_sum = 0;
  for (const mpvm::MigrationStats& m : mpvm.history()) {
    const sim::Time f = m.freeze_window();
    freeze_sum += f;
    r.max_freeze = std::max(r.max_freeze, f);
  }
  if (!mpvm.history().empty())
    r.mean_freeze = freeze_sum / static_cast<double>(mpvm.history().size());
  r.thrash_violations = gs.placement().thrash_violations();
  r.faults_injected = plan.injected().size();

  r.slo_violations = an.violations().size();
  if (recorder != nullptr) {
    r.flight_dumps = recorder->dumps();
    r.flight_files = recorder->files();
  }

  r.spans = vm.spans().size();
  const obs::TraceAuditor auditor(vm.spans());
  const std::vector<obs::AuditViolation> violations = auditor.audit();
  r.audit_violations = violations.size();
  if (!violations.empty()) r.audit_report = obs::TraceAuditor::format(violations);
  if (spans_out != nullptr) {
    spans_out->insert(spans_out->end(), vm.spans().spans().begin(),
                      vm.spans().spans().end());
  }
  return r;
}

}  // namespace cpe::svc
