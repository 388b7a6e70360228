#include "workloads.hpp"

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "apps/opt/adm_opt.hpp"
#include "apps/opt/opt_app.hpp"
#include "apps/opt/spmd_opt.hpp"
#include "fault/fault.hpp"
#include "gs/scheduler.hpp"
#include "load/exchange.hpp"
#include "mpvm/mpvm.hpp"
#include "net/tcp.hpp"
#include "obs/analytics.hpp"
#include "obs/audit.hpp"
#include "os/owner.hpp"
#include "svc/frontend.hpp"
#include "upvm/upvm.hpp"

namespace perfbench {
namespace {

using namespace cpe;

/// Large enough that no workload drops a span: percentiles are read from
/// the complete span record, and a run that overflows it fails its checks.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 23;

/// The simulator's own random streams (gossip peers, placement tie-breaks,
/// the network, fault plans) use fixed seeds; the benchmark seed drives only
/// the generated inputs.
constexpr std::uint64_t kSystemSeed = 42;

// Workload constants.  fleet_churn: tasks per host in the hot and cold
// halves, and its operation latency limit (migration order to restart).
constexpr int kHotTasks = 24;
constexpr int kColdTasks = 8;
constexpr double kFleetOpLimit = 2.5;
// svc_storm: worker hosts, workers, request timeout, request latency limit.
constexpr int kWorkerHosts = 8;
constexpr int kWorkers = 16;
constexpr double kTimeout = 30.0;
constexpr double kSvcOpLimit = 1.0;
// paper_reclaim: obtrusiveness limit of one move.
constexpr double kPaperOpLimit = 5.0;

/// Periodic machinery (gossip rounds, GS polls, analytics windows, owner
/// churn and storms) starts this far off the integer time grid.  The
/// engine's calendar queue takes a bucket index as t * (1 / width); for a
/// timestamp exactly on a bucket boundary the product can round down into
/// the bucket already swept, and that event then pops out of order (the
/// engine's `e.t >= now_` invariant fails).  Integer-timed periodic events
/// land on such boundaries often enough to abort some runs.
constexpr double kGridOffset = 0.7071067811865476;

/// Independent streams per component, derived from one seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void raise_peak(RepOut& out, const std::string& name, double v) {
  double& p = out.peak[name];
  if (v > p) p = v;
}

/// Run one set-up call into `layer`, timed into setup.<layer>_s.
template <class F>
void setup_step(RepOut& out, HostTrace& tr, const char* layer, F&& f) {
  const std::string name = std::string("setup.") + layer;
  const std::size_t h = tr.begin(name, layer);
  const double t0 = host_now();
  f();
  out.sum[name + "_s"] += host_now() - t0;
  tr.end(h);
}

/// Advance `eng` in 1-virtual-second run_until slices.  `until` bounds the
/// run; with `drain` the run also stops once no event is pending.  After
/// each slice `between(t)` runs: load sampling and, traced, the probes.
template <class F>
void run_sliced(sim::Engine& eng, sim::Time until, bool drain, RepOut& out,
                HostTrace& tr, F&& between) {
  while (eng.now() < until && (!drain || eng.pending_count() > 0)) {
    const sim::Time stop = std::min(std::floor(eng.now()) + 1.0, until);
    const std::size_t h = tr.begin("sim.run_until", "sim");
    out.sum["sim.events"] += static_cast<double>(eng.run_until(stop));
    const double dt = tr.end(h);
    if (tr.on()) raise_peak(out, "sim.slice_max_s", dt);
    raise_peak(out, "sim.pending_peak",
               static_cast<double>(eng.pending_count()));
    between(stop);
  }
}

/// Fire events one at a time until `done()`: the initial population spawns
/// inside set-up, in exactly the order a run_until would fire it.
template <class F>
void step_until(sim::Engine& eng, RepOut& out, F&& done) {
  while (!done() && eng.step()) out.sum["sim.events"] += 1;
}

/// One sample of the true runnable load across `hosts`.
void sample_load(RepOut& out, const std::vector<os::Host*>& hosts) {
  double sum = 0, sq = 0;
  for (os::Host* h : hosts) {
    const double l = h->cpu().load();
    sum += l;
    sq += l * l;
  }
  const double n = static_cast<double>(hosts.size());
  out.load_sum += sum;
  out.load_n += hosts.size();
  const double mean = sum / n;
  if (mean <= 0) return;
  const double var = sq / n - mean * mean;
  out.cv_sum += std::sqrt(var > 0 ? var : 0) / mean;
  ++out.cv_n;
}

// Registry counters harvested as a snapshot delta, and the transport
// totals the PvmSystem collector publishes as gauges.
constexpr const char* kCounters[] = {
    "pvm.messages_routed",       "pvm.bytes_routed",
    "pvm.seq.duplicates_dropped", "pvm.seq.reordered_held",
    "pvm.seq.gaps_skipped",      "pvm.crc.dropped",
    "mpvm.migrations.completed", "mpvm.migrations.failed",
    "mpvm.flush.retries",        "mpvm.flush.acks_substituted",
    "mpvm.residual.forwarded",   "upvm.migrations.completed",
    "upvm.migrations.aborted",   "adm.repartitions",
    "adm.consensus.rounds",      "adm.events.posted",
    "load.gossip.sent",
    "gs.migration.attempts",     "gs.migration.retries",
    "gs.migration.admission_refused", "gs.migration.admission_waits",
    "svc.issued",                "svc.completed",
    "svc.timeouts",              "svc.rejected",
    "svc.late",
};
constexpr const char* kGauges[] = {
    "net.ether.frames",        "net.ether.payload_bytes",
    "net.datagrams.sent",      "net.datagram.bytes_sent",
    "net.datagram.drops_total", "net.fragments.retransmitted",
};

/// Per-layer counts of one PvmSystem: the registry delta since `before`,
/// the span ring's tallies, and the post-run audit.
void harvest_vm(pvm::PvmSystem& vm, const obs::MetricsSnapshot& before,
                RepOut& out, HostTrace& tr, const char* what) {
  const std::size_t h = tr.begin("obs.snapshot", "obs");
  const obs::MetricsSnapshot after = vm.metrics().snapshot();
  tr.end(h);
  for (const char* c : kCounters)
    out.sum[c] += static_cast<double>(after.delta(before, c));
  for (const char* g : kGauges)
    if (const obs::Gauge* gauge = vm.metrics().find_gauge(g))
      out.sum[g] += gauge->value();

  out.sum["obs.spans"] += static_cast<double>(vm.spans().size());
  out.sum["obs.spans_dropped"] += static_cast<double>(vm.spans().dropped());
  if (vm.spans().dropped() != 0)
    out.failures.push_back(std::string(what) + ": span ring dropped " +
                           std::to_string(vm.spans().dropped()) + " spans");

  const std::size_t ha = tr.begin("obs.audit", "obs");
  const double t0 = host_now();
  const std::vector<obs::AuditViolation> v =
      obs::TraceAuditor(vm.spans()).audit();
  out.sum["obs.audit_s"] += host_now() - t0;
  tr.end(ha);
  if (!v.empty()) {
    std::string first = obs::TraceAuditor::format(v);
    first = first.substr(0, first.find('\n'));
    out.failures.push_back(std::string(what) + ": trace audit found " +
                           std::to_string(v.size()) +
                           " violation(s), first: " + first);
  }
  if (tr.on()) {
    const std::size_t he = tr.begin("obs.trace_export", "obs");
    const double t1 = host_now();
    std::ostringstream sink;
    obs::write_chrome_trace(vm.spans(), sink);
    out.sum["obs.trace_export_s"] += host_now() - t1;
    tr.end(he);
  }
}

void digest_journal(Digest& d, const gs::GlobalScheduler& gs) {
  for (const gs::Decision& x : gs.journal()) {
    d.f64(x.t);
    d.str(x.what);
    d.u64(x.ok ? 1 : 0);
    d.u64(static_cast<std::uint64_t>(x.reason));
    d.f64(x.load);
  }
}

/// Freeze windows, stage busy times and latencies of MPVM's history.
/// `op_limit` > 0 also makes each migration a user-facing operation.
void harvest_mpvm(const mpvm::Mpvm& m, RepOut& out, Digest& d,
                  double op_limit) {
  for (const mpvm::MigrationStats& s : m.history()) {
    out.freeze.push_back(s.freeze_window());
    out.sum["mpvm.freeze_s"] += s.frozen_time - s.event_time;
    out.sum["mpvm.flush_s"] += s.flush_done - s.frozen_time;
    out.sum["mpvm.transfer_s"] += s.transfer_done - s.flush_done;
    out.sum["mpvm.restart_s"] += s.restart_done - s.transfer_done;
    out.sum["mpvm.residue_bytes"] += static_cast<double>(s.residue_bytes);
    out.sum["mpvm.state_bytes"] += static_cast<double>(s.state_bytes);
    if (op_limit > 0) {
      out.op_latency.push_back(s.migration_time());
      if (s.migration_time() <= op_limit) ++out.within_limit;
    }
    d.u64(static_cast<std::uint64_t>(s.task.raw()));
    d.str(s.from_host);
    d.str(s.to_host);
    d.u64(s.state_bytes);
    d.u64(s.residue_bytes);
    d.f64(s.event_time);
    d.f64(s.frozen_time);
    d.f64(s.flush_done);
    d.f64(s.transfer_done);
    d.f64(s.restart_done);
  }
}

void harvest_upvm(const upvm::Upvm& u, RepOut& out, Digest& d) {
  for (const upvm::UlpMigrationStats& s : u.history()) {
    out.freeze.push_back(s.accept_done - s.captured_time);
    out.sum["upvm.capture_s"] += s.captured_time - s.event_time;
    out.sum["upvm.flush_s"] += s.flush_done - s.captured_time;
    out.sum["upvm.offload_s"] += s.offload_done - s.flush_done;
    out.sum["upvm.accept_s"] += s.accept_done - s.offload_done;
    d.u64(static_cast<std::uint64_t>(s.ulp));
    d.str(s.from_host);
    d.str(s.to_host);
    d.u64(s.state_bytes);
    d.f64(s.event_time);
    d.f64(s.captured_time);
    d.f64(s.flush_done);
    d.f64(s.offload_done);
    d.f64(s.accept_done);
  }
}

void harvest_adm(const opt::AdmOpt& a, RepOut& out, Digest& d) {
  for (const opt::AdmRedistStats& s : a.redistributions()) {
    out.freeze.push_back(s.migration_time());
    out.sum["adm.redist_s"] += s.migration_time();
    d.u64(static_cast<std::uint64_t>(s.slave));
    d.u64(static_cast<std::uint64_t>(s.kind));
    d.f64(s.event_time);
    d.f64(s.resume_time);
  }
}

void harvest_exchange(const load::LoadExchange& x, RepOut& out, Digest& d) {
  out.sum["load.gossip.rounds"] += static_cast<double>(x.rounds());
  out.sum["load.entries_merged"] += static_cast<double>(x.entries_merged());
  out.sum["load.stale_dropped"] += static_cast<double>(x.stale_dropped());
  d.u64(x.rounds());
  d.u64(x.entries_merged());
  d.u64(x.stale_dropped());
}

void harvest_gs(const gs::GlobalScheduler& g, RepOut& out, Digest& d) {
  out.sum["gs.decisions"] += static_cast<double>(g.journal().size());
  for (const gs::Decision& x : g.journal())
    if (x.reason != gs::DecisionReason::kNone) out.sum["gs.actions"] += 1;
  out.sum["gs.residency_rejections"] +=
      static_cast<double>(g.placement().residency_rejections());
  out.sum["gs.thrash_violations"] +=
      static_cast<double>(g.placement().thrash_violations());
  out.sum["gs.admission.refusals"] +=
      static_cast<double>(g.admission().refusals());
  digest_journal(d, g);
}

/// The traced run's probes, at GS cadence: how long the scheduler's view
/// read, a placement decision over it, and a metrics snapshot take.  The
/// decision runs on the benchmark's own PlacementEngine, so the run's
/// scheduler state and random streams are untouched.
class Probes {
 public:
  Probes(pvm::PvmSystem& vm, const load::LoadExchange* exchange,
         os::Host* gs_host, const gs::GsPolicy& pol, std::uint64_t seed)
      : vm_(&vm),
        exchange_(exchange),
        gs_host_(gs_host),
        pol_(pol),
        engine_(pol.placement, seed) {
    for (const auto& d : vm.daemons()) by_name_[d->host().name()] = &d->host();
  }

  void run(RepOut& out, HostTrace& tr) {
    if (exchange_ != nullptr) {
      const std::size_t hv = tr.begin("load.view", "load");
      const double t0 = host_now();
      const std::vector<load::LoadEntry> view = exchange_->view(*gs_host_);
      out.sum["load.view_s"] += host_now() - t0;
      out.sum["load.view_calls"] += 1;
      tr.end(hv);

      const sim::Time now = vm_->engine().now();
      std::vector<load::HostLoadView> views;
      views.reserve(view.size());
      for (const load::LoadEntry& e : view) {
        const auto it = by_name_.find(e.host);
        if (it == by_name_.end()) continue;
        os::Host* h = it->second;
        const pvm::Pvmd* d = vm_->daemon_on(*h);
        views.emplace_back(
            h, h->cpu().load(), h->cpu().load() + h->cpu().external_jobs(),
            e.index, now - e.stamp,
            d == nullptr ? 0 : static_cast<int>(d->local_task_count()),
            h->up(), true);
      }
      load::PlacementParams p;
      p.load_threshold = pol_.load_threshold;
      p.improvement_margin = pol_.improvement_margin;
      p.min_residency = pol_.min_residency;
      p.staleness_bound = pol_.staleness_bound;
      p.costs = &vm_->costs();
      p.cost_horizon = pol_.cost_horizon;
      p.max_actions = pol_.max_rebalance_actions;
      p.now = now;
      p.queue_weight = pol_.queue_weight;
      const std::size_t hd = tr.begin("gs.decide", "gs");
      const double t1 = host_now();
      const std::vector<load::PlacementAction> actions =
          engine_.decide(views, p);
      out.sum["gs.decide_s"] += host_now() - t1;
      out.sum["gs.decide_calls"] += 1;
      tr.end(hd);
      (void)actions;
    }
    const std::size_t hs = tr.begin("obs.snapshot", "obs");
    const double t2 = host_now();
    (void)vm_->metrics().snapshot();
    out.sum["obs.snapshot_s"] += host_now() - t2;
    out.sum["obs.snapshot_calls"] += 1;
    tr.end(hs);
  }

 private:
  pvm::PvmSystem* vm_;
  const load::LoadExchange* exchange_;
  os::Host* gs_host_;
  gs::GsPolicy pol_;
  load::PlacementEngine engine_;
  std::unordered_map<std::string, os::Host*> by_name_;
};

/// host s to run a fleet's load exchange alone, start through run_until,
/// on a worknet of `n` idle hosts.  Traced runs only.
double gossip_probe(int n, double horizon, HostTrace& tr) {
  const std::size_t h = tr.begin("load.gossip_probe", "load");
  const double t0 = host_now();
  {
    sim::Engine eng;
    net::Network net(eng, {}, {}, mix(kSystemSeed, 2));
    std::vector<std::unique_ptr<os::Host>> hosts;
    for (int i = 0; i < n; ++i)
      hosts.push_back(std::make_unique<os::Host>(
          eng, net, os::HostConfig("h" + std::to_string(i), "HPPA", 1.0)));
    pvm::PvmSystem vm(eng, net);
    for (auto& host : hosts) vm.add_host(*host);
    load::ExchangePolicy xp;
    xp.seed = mix(kSystemSeed, 4);
    load::LoadExchange exchange(vm, xp);
    exchange.start(horizon);
    eng.run_until(horizon);
  }
  const double dt = host_now() - t0;
  tr.end(h);
  return dt;
}

std::vector<os::Host*> raw(const std::vector<std::unique_ptr<os::Host>>& v) {
  std::vector<os::Host*> out;
  for (const auto& h : v) out.push_back(h.get());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// fleet_churn: 512 hosts, 8192 long-lived 100 kB MPVM tasks, skewed start,
// a rotating 64-host owner-churn window, best_fit fed by load gossip.
// ---------------------------------------------------------------------------
RepOut run_fleet_churn(const RepConfig& cfg, const FleetParams& p) {
  RepOut out;
  HostTrace off(false);
  HostTrace& tr = cfg.trace != nullptr ? *cfg.trace : off;
  Digest dig;
  const std::size_t rep_span = tr.begin("rep.fleet_churn", "bench");
  const double t_setup = host_now();

  // The layout is bench_load_scale's: the first half starts hot, the owner
  // churn window starts at the cold half.  The seed draws each task's image
  // size within +-0.5% of 100 kB.  (Larger input perturbations, such as
  // reshuffling the initial population, switch the fleet between two
  // placement regimes whose freeze windows differ by ~25%.)
  const int n = p.hosts;
  const int churn_from = n / 2;
  const int total_tasks = (n / 2) * kHotTasks + (n - n / 2) * kColdTasks;
  const std::uint64_t image_salt = mix(cfg.seed, 1);

  std::unique_ptr<sim::Engine> eng;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<os::Host>> hosts;
  std::unique_ptr<pvm::PvmSystem> vm;
  std::unique_ptr<mpvm::Mpvm> mpvm;
  std::unique_ptr<gs::GlobalScheduler> gs;
  std::unique_ptr<load::LoadExchange> exchange;
  gs::GsPolicy pol;

  setup_step(out, tr, "sim", [&] { eng = std::make_unique<sim::Engine>(); });
  setup_step(out, tr, "net", [&] {
    net = std::make_unique<net::Network>(*eng, net::EthernetParams{},
                                         net::DatagramParams{},
                                         mix(kSystemSeed, 2));
  });
  setup_step(out, tr, "os", [&] {
    hosts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      hosts.push_back(std::make_unique<os::Host>(
          *eng, *net, os::HostConfig("h" + std::to_string(i), "HPPA", 1.0)));
  });
  setup_step(out, tr, "pvm", [&] {
    vm = std::make_unique<pvm::PvmSystem>(*eng, *net);
    vm->spans().set_capacity(kSpanCapacity);
    for (auto& h : hosts) vm->add_host(*h);
    vm->register_program("worker", [image_salt](pvm::Task& t) -> sim::Co<void> {
      t.process().image().data_bytes =
          99'500 +
          mix(image_salt, static_cast<std::uint64_t>(t.tid().raw())) % 1000;
      co_await t.compute(1000.0);  // outlives the horizon
    });
  });
  setup_step(out, tr, "mpvm",
             [&] { mpvm = std::make_unique<mpvm::Mpvm>(*vm); });
  setup_step(out, tr, "gs", [&] {
    pol.placement = load::PolicyKind::kBestFit;
    pol.poll_interval = 1.0;
    pol.min_residency = 5.0;
    pol.max_rebalance_actions = n / 4;
    pol.max_concurrent_migrations = std::max(1, n / 64);
    pol.placement_seed = mix(kSystemSeed, 3);
    pol.load_threshold = 20.0;  // mean 16: only genuinely hot hosts shed
    gs = std::make_unique<gs::GlobalScheduler>(*vm, pol);
    gs->attach(*mpvm);
  });
  setup_step(out, tr, "load", [&] {
    load::ExchangePolicy xp;
    xp.seed = mix(kSystemSeed, 4);
    exchange = std::make_unique<load::LoadExchange>(*vm, xp);
    gs->attach(*exchange, *hosts[0]);
  });
  setup_step(out, tr, "os", [&] {
    // Owner churn: every 10 s a window of churn_hosts gains a 6-job owner
    // and the previous window's owners log off.
    for (int k = 1; k * 10.0 < p.horizon; ++k) {
      eng->schedule_at(kGridOffset + k * 10.0, [&hosts, &p, n, churn_from, k] {
        for (int j = 0; j < p.churn_hosts; ++j) {
          const auto prev = static_cast<std::size_t>(
              (churn_from + (k - 1) * p.churn_hosts + j) % n);
          const auto cur = static_cast<std::size_t>(
              (churn_from + k * p.churn_hosts + j) % n);
          hosts[prev]->cpu().set_external_jobs(0);
          hosts[cur]->cpu().set_external_jobs(6);
        }
      });
    }
  });
  setup_step(out, tr, "gs", [&] {
    eng->schedule_at(kGridOffset, [&] {
      exchange->start(kGridOffset + p.horizon);
      gs->start_monitoring(kGridOffset + p.horizon);
    });
  });
  // The skewed initial population, one spawn batch per host.  Set-up ends
  // once every batch has spawned.
  int spawned = 0;
  auto spawn_batch = [&](int hi, int count) -> sim::Proc {
    co_await vm->spawn("worker", count,
                       hosts[static_cast<std::size_t>(hi)]->name());
    ++spawned;
  };
  setup_step(out, tr, "spawn", [&] {
    for (int k = 0; k < n; ++k)
      sim::spawn(*eng, spawn_batch(k, k < n / 2 ? kHotTasks : kColdTasks));
    step_until(*eng, out, [&] { return spawned == n; });
  });
  out.setup_s = host_now() - t_setup;

  const obs::MetricsSnapshot before = vm->metrics().snapshot();
  std::unique_ptr<Probes> probes;
  if (tr.on())
    probes = std::make_unique<Probes>(*vm, exchange.get(), hosts[0].get(),
                                      pol, mix(kSystemSeed, 99));
  const std::vector<os::Host*> all = raw(hosts);

  const double t_run = host_now();
  const std::size_t run_span = tr.begin("run", "sim");
  // Grace past the horizon lets migrations ordered just before it resolve.
  run_sliced(*eng, p.horizon + 45.0, false, out, tr, [&](sim::Time t) {
    if (t > p.horizon / 2 && t <= p.horizon) sample_load(out, all);
    if (probes && t <= p.horizon) probes->run(out, tr);
  });
  tr.end(run_span);
  out.wall_s = host_now() - t_run;

  harvest_vm(*vm, before, out, tr, "fleet_churn");
  harvest_mpvm(*mpvm, out, dig, kFleetOpLimit);
  harvest_exchange(*exchange, out, dig);
  harvest_gs(*gs, out, dig);
  out.sum["gs.migrations.completed"] +=
      static_cast<double>(mpvm->history().size());

  const auto failed = static_cast<std::uint64_t>(
      out.sum["mpvm.migrations.failed"]);
  out.completed = mpvm->history().size();
  out.attempted = out.completed + failed;
  out.op_censored = failed;
  out.op_bound = pol.migration_watchdog;

  // Output checks: the closed population is conserved across hosts, and
  // the hysteresis never let a unit move inside its residency window.
  std::size_t live = 0;
  for (const auto& h : hosts) {
    const pvm::Pvmd* d = vm->daemon_on(*h);
    const std::size_t c = d == nullptr ? 0 : d->local_task_count();
    live += c;
    dig.u64(c);
  }
  if (live != static_cast<std::size_t>(total_tasks) ||
      vm->live_task_count() != static_cast<std::size_t>(total_tasks))
    out.failures.push_back("fleet_churn: task count not conserved (" +
                           std::to_string(live) + " on hosts, " +
                           std::to_string(vm->live_task_count()) +
                           " live, expected " + std::to_string(total_tasks) +
                           ")");
  if (gs->placement().thrash_violations() != 0)
    out.failures.push_back("fleet_churn: thrash_violations = " +
                           std::to_string(gs->placement().thrash_violations()));
  if (tr.on())
    out.sum["load.gossip_probe_s"] +=
        gossip_probe(n, p.horizon, tr);
  out.digest = dig.value();
  tr.end(rep_span);
  return out;
}

// ---------------------------------------------------------------------------
// svc_storm: two open-loop Poisson frontend shards, 16 workers with 8 MiB
// images on 8 worker hosts, best_fit with pre-copy and queueing pressure, a
// rotating owner storm on 2 worker hosts.
// ---------------------------------------------------------------------------
RepOut run_svc_storm(const RepConfig& cfg, const SvcParams& p) {
  RepOut out;
  HostTrace off(false);
  HostTrace& tr = cfg.trace != nullptr ? *cfg.trace : off;
  Digest dig;
  const std::size_t rep_span = tr.begin("rep.svc_storm", "bench");
  const double t_setup = host_now();

  constexpr int kFrontends = 2;
  constexpr double kStormPeriod = 60.0;
  constexpr double kStormStart = 20.0;
  constexpr int kStormHosts = 2;
  constexpr int kStormJobs = 6;
  sim::Rng in(mix(cfg.seed, 1));
  const int storm_from =
      static_cast<int>(in.below(static_cast<std::uint64_t>(kWorkerHosts)));

  std::unique_ptr<sim::Engine> eng;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<os::Host>> hosts;
  std::unique_ptr<pvm::PvmSystem> vm;
  std::unique_ptr<mpvm::Mpvm> mpvm;
  std::unique_ptr<gs::GlobalScheduler> gs;
  std::unique_ptr<load::LoadExchange> exchange;
  std::vector<std::unique_ptr<svc::Frontend>> fronts;
  std::unique_ptr<obs::Analytics> analytics;
  std::unique_ptr<fault::FaultPlan> plan;
  std::vector<os::Host*> workers;
  gs::GsPolicy pol;

  setup_step(out, tr, "sim", [&] { eng = std::make_unique<sim::Engine>(); });
  setup_step(out, tr, "net", [&] {
    net::EthernetParams ep;
    ep.bandwidth_bps = 100e6;
    net = std::make_unique<net::Network>(*eng, ep, net::DatagramParams{},
                                         mix(kSystemSeed, 2));
  });
  setup_step(out, tr, "os", [&] {
    for (int i = 0; i < kFrontends + kWorkerHosts; ++i) {
      const std::string name = i < kFrontends
                                   ? "fe" + std::to_string(i)
                                   : "w" + std::to_string(i - kFrontends);
      hosts.push_back(std::make_unique<os::Host>(
          *eng, *net, os::HostConfig(name, "HPPA", 1.0)));
      if (i >= kFrontends) workers.push_back(hosts.back().get());
    }
  });
  setup_step(out, tr, "pvm", [&] {
    vm = std::make_unique<pvm::PvmSystem>(*eng, *net);
    vm->spans().set_capacity(kSpanCapacity);
    for (auto& h : hosts) vm->add_host(*h);
  });
  setup_step(out, tr, "mpvm", [&] {
    mpvm = std::make_unique<mpvm::Mpvm>(*vm);
    mpvm::MpvmTuning tuning;
    tuning.precopy = true;
    mpvm->set_tuning(tuning);
  });
  setup_step(out, tr, "gs", [&] {
    pol.placement = load::PolicyKind::kBestFit;
    pol.poll_interval = 1.0;
    pol.load_threshold = 4.0;
    pol.min_residency = 8.0;
    pol.queue_weight = 0.05;
    pol.placement_seed = mix(kSystemSeed, 3);
    gs = std::make_unique<gs::GlobalScheduler>(*vm, pol);
    gs->attach(*mpvm);
  });
  setup_step(out, tr, "load", [&] {
    load::ExchangePolicy xp;
    xp.seed = mix(kSystemSeed, 4);
    exchange = std::make_unique<load::LoadExchange>(*vm, xp);
    gs->attach(*exchange, *hosts[0]);
  });
  std::vector<std::vector<os::Host*>> shard_hosts(kFrontends);
  setup_step(out, tr, "svc", [&] {
    for (int j = 0; j < kWorkers; ++j)
      shard_hosts[static_cast<std::size_t>(j % kFrontends)].push_back(
          workers[static_cast<std::size_t>(j) % workers.size()]);
    for (int f = 0; f < kFrontends; ++f) {
      svc::FrontendOptions fo;
      fo.route = svc::RouteKind::kRoundRobin;
      fo.timeout = kTimeout;
      fo.service_demand = 20e-3;
      fo.sample_every = 1;  // every request traced: exact percentiles
      fo.worker_image_bytes = 8 * 1024 * 1024;
      fo.seed = mix(cfg.seed, 20 + static_cast<std::uint64_t>(f));
      fronts.push_back(std::make_unique<svc::Frontend>(
          *vm,
          std::make_unique<svc::PoissonArrivals>(
              p.rate, mix(cfg.seed, 10 + static_cast<std::uint64_t>(f))),
          fo));
    }
  });
  // The GS's queueing-pressure feed, installed (and, traced, timed) here.
  setup_step(out, tr, "svc", [&] {
    gs->set_pressure_source([&fronts, &out, &tr](const os::Host& h) {
      const double t0 = tr.on() ? host_now() : 0;
      double sum = 0;
      for (const auto& f : fronts) sum += f->outstanding_on(h);
      out.sum["svc.pressure_calls"] += 1;
      if (tr.on()) out.sum["svc.pressure_s"] += host_now() - t0;
      return sum;
    });
  });
  setup_step(out, tr, "obs", [&] {
    obs::AnalyticsOptions aopt;
    aopt.window = 1.0;
    aopt.ring_windows = 256;
    analytics = std::make_unique<obs::Analytics>(*eng, vm->metrics(), aopt);
    svc::track_service_metrics(*analytics);
  });
  setup_step(out, tr, "fault", [&] {
    // Owner storm: each window puts kStormJobs owner jobs on kStormHosts
    // worker hosts and releases the previous window's; owners leave at the
    // horizon so the grace drains on quiet hosts.
    plan = std::make_unique<fault::FaultPlan>(*eng, mix(kSystemSeed, 5));
    const int nw = static_cast<int>(workers.size());
    int k = 0;
    for (double t = kStormStart; t < p.horizon; t += kStormPeriod, ++k) {
      plan->trigger_at(kGridOffset + t, "storm window " + std::to_string(k),
                       [&workers, nw, storm_from, k] {
                         for (int j = 0; j < kStormHosts; ++j) {
                           const auto prev = static_cast<std::size_t>(
                               (storm_from + (k - 1) * kStormHosts + j) % nw);
                           const auto cur = static_cast<std::size_t>(
                               (storm_from + k * kStormHosts + j) % nw);
                           if (k > 0) workers[prev]->cpu().set_external_jobs(0);
                           workers[cur]->cpu().set_external_jobs(kStormJobs);
                         }
                       });
    }
    plan->trigger_at(kGridOffset + p.horizon, "storm end", [&workers] {
      for (os::Host* h : workers) h->cpu().set_external_jobs(0);
    });
  });
  setup_step(out, tr, "gs", [&] {
    eng->schedule_at(kGridOffset, [&] {
      exchange->start(kGridOffset + p.horizon);
      gs->start_monitoring(kGridOffset + p.horizon);
      analytics->start(kGridOffset + p.horizon);
    });
  });
  // Frontend and worker tasks; set-up ends once every worker is spawned.
  setup_step(out, tr, "spawn", [&] {
    for (int f = 0; f < kFrontends; ++f)
      fronts[static_cast<std::size_t>(f)]->launch(
          *hosts[static_cast<std::size_t>(f)],
          shard_hosts[static_cast<std::size_t>(f)], p.horizon);
    step_until(*eng, out, [&] {
      for (int f = 0; f < kFrontends; ++f)
        if (fronts[static_cast<std::size_t>(f)]->worker_tids().size() !=
            shard_hosts[static_cast<std::size_t>(f)].size())
          return false;
      return true;
    });
  });
  out.setup_s = host_now() - t_setup;

  const obs::MetricsSnapshot before = vm->metrics().snapshot();
  std::unique_ptr<Probes> probes;
  if (tr.on())
    probes = std::make_unique<Probes>(*vm, exchange.get(), hosts[0].get(),
                                      pol, mix(kSystemSeed, 99));

  const double t_run = host_now();
  const std::size_t run_span = tr.begin("run", "sim");
  // Grace: the last request issued at the horizon can still time out, and
  // migrations ordered just before it resolve.
  run_sliced(*eng, p.horizon + kTimeout + 45.0, false, out, tr,
             [&](sim::Time t) {
               if (t > p.horizon / 2 && t <= p.horizon)
                 sample_load(out, workers);
               if (probes && t <= p.horizon) probes->run(out, tr);
             });
  tr.end(run_span);
  out.wall_s = host_now() - t_run;

  harvest_vm(*vm, before, out, tr, "svc_storm");
  harvest_mpvm(*mpvm, out, dig, 0);
  harvest_exchange(*exchange, out, dig);
  harvest_gs(*gs, out, dig);
  out.sum["gs.migrations.completed"] +=
      static_cast<double>(mpvm->history().size());
  out.sum["fault.injected"] += static_cast<double>(plan->injected().size());

  std::uint64_t issued = 0, completed = 0, timeouts = 0, rejected = 0,
                late = 0, pending = 0;
  for (const auto& f : fronts) {
    issued += f->issued();
    completed += f->completed();
    timeouts += f->timeouts();
    rejected += f->rejected();
    late += f->late();
    pending += f->pending_count();
  }
  for (std::uint64_t v : {issued, completed, timeouts, rejected, late, pending})
    dig.u64(v);

  // Exact latencies from the request spans: completed requests by their
  // span, timed-out and rejected ones censored at the timeout.
  std::uint64_t request_spans = 0, aborted_spans = 0;
  for (const obs::SpanRecord& s : vm->spans().spans()) {
    if (s.name == "svc.request") {
      ++request_spans;
      if (s.status == obs::SpanStatus::kOk) {
        const double lat = s.end - s.start;
        out.op_latency.push_back(lat);
        if (lat <= kSvcOpLimit) ++out.within_limit;
        dig.f64(lat);
      } else {
        ++aborted_spans;
      }
    } else if (s.name == "svc.serve" && s.status == obs::SpanStatus::kOk) {
      if (const std::string* q = s.attr("queue_wait_s"))
        out.queue_wait.push_back(std::stod(*q));
      if (const std::string* st = s.attr("stall_s"))
        out.stall.push_back(std::stod(*st));
    }
  }
  out.attempted = issued;
  out.completed = completed;
  out.op_censored = timeouts + rejected;
  out.op_bound = kTimeout;

  // Output checks: every request resolves exactly once, every request left
  // a span, and the open-loop generator kept its schedule (arrivals fire
  // at their due virtual time, so the count tracks the offered rate).
  if (issued != completed + timeouts + rejected || pending != 0)
    out.failures.push_back(
        "svc_storm: requests not resolved exactly once (issued " +
        std::to_string(issued) + ", completed " + std::to_string(completed) +
        ", timeouts " + std::to_string(timeouts) + ", rejected " +
        std::to_string(rejected) + ", pending " + std::to_string(pending) +
        ")");
  if (request_spans != issued - rejected || aborted_spans != timeouts)
    out.failures.push_back("svc_storm: request spans (" +
                           std::to_string(request_spans) +
                           ") do not match the frontend tallies");
  const double offered = kFrontends * p.rate * p.horizon;
  if (std::fabs(static_cast<double>(issued) - offered) >
      6.0 * std::sqrt(offered))
    out.failures.push_back("svc_storm: issued " + std::to_string(issued) +
                           " requests against " + std::to_string(offered) +
                           " offered: the generator left its schedule");
  if (tr.on())
    out.sum["load.gossip_probe_s"] += gossip_probe(
        kFrontends + kWorkerHosts, p.horizon, tr);
  out.digest = dig.value();
  tr.end(rep_span);
  return out;
}

// ---------------------------------------------------------------------------
// paper_reclaim: the paper testbed (HP 9000/720-class hosts, 10 Mb/s
// Ethernet).  Single migrations at the paper's sizes (Tables 2, 4, 6), then
// Opt at 9 MB with 3 slaves whose host2 the owner reclaims, vacated by the
// GS through MPVM, UPVM and ADM in turn.
// ---------------------------------------------------------------------------
namespace {

/// One paper-testbed worknet: host1..hostN on one 10 Mb/s segment.
struct Bed {
  sim::Engine eng;
  net::Network net;
  std::vector<std::unique_ptr<os::Host>> hosts;
  pvm::PvmSystem vm;

  Bed(int n, std::uint64_t seed)
      : net(eng, net::EthernetParams{}, net::DatagramParams{}, seed),
        vm(eng, net) {
    for (int i = 1; i <= n; ++i)
      hosts.push_back(std::make_unique<os::Host>(
          eng, net, os::HostConfig("host" + std::to_string(i), "HPPA", 1.0)));
    for (auto& h : hosts) vm.add_host(*h);
    vm.spans().set_capacity(kSpanCapacity);
  }
  os::Host& host(int i) { return *hosts[static_cast<std::size_t>(i - 1)]; }
};

/// The paper's PVM_opt configuration at a training-set size: master plus
/// two slaves, master co-located with slave 1 (§4.0).
opt::OptConfig table_opt(double data_mb) {
  opt::OptConfig c;
  c.data_bytes = static_cast<std::size_t>(data_mb * 1e6);
  c.nslaves = 2;
  const calib::OptWorkload w{};
  c.iterations = data_mb > 2.0 ? w.iterations_large : w.iterations_small;
  c.real_math = false;
  c.master_host = "host1";
  c.slave_hosts = {"host1", "host2"};
  return c;
}

/// Everything one paper sub-run adds up: timed set-up and run phases.
struct SubRun {
  RepOut& out;
  HostTrace& tr;
  const char* what;

  template <class F>
  void setup(const char* layer, F&& f) {
    const double t0 = host_now();
    setup_step(out, tr, layer, std::forward<F>(f));
    out.setup_s += host_now() - t0;
  }
  /// Run `bed` until its queue drains (bounded), sampling `load_hosts`
  /// from `sample_from` on.
  void run(Bed& bed, const std::vector<os::Host*>& load_hosts = {},
           double sample_from = 0) {
    const obs::MetricsSnapshot before = bed.vm.metrics().snapshot();
    std::unique_ptr<Probes> probes;
    if (tr.on())
      probes = std::make_unique<Probes>(bed.vm, nullptr, nullptr,
                                        gs::GsPolicy{}, 0);
    const double t0 = host_now();
    const std::size_t h = tr.begin(std::string("run.") + what, "sim");
    run_sliced(bed.eng, 20000.0, true, out, tr, [&](sim::Time t) {
      if (!load_hosts.empty() && t > sample_from) sample_load(out, load_hosts);
      if (probes) probes->run(out, tr);
    });
    tr.end(h);
    out.wall_s += host_now() - t0;
    if (bed.eng.pending_count() != 0)
      out.failures.push_back(std::string(what) + ": did not finish");
    harvest_vm(bed.vm, before, out, tr, what);
  }
};

/// Virtual seconds to push `bytes` through a bare TCP stream: the lower
/// bound on any migration mechanism (Table 2's raw-TCP column).
double raw_tcp_seconds(std::size_t bytes, SubRun& sr) {
  std::unique_ptr<Bed> bed;
  sr.setup("net", [&] { bed = std::make_unique<Bed>(2, 1); });
  double done = -1;
  auto body = [&]() -> sim::Proc {
    const net::NodeId a = bed->host(1).node();
    const net::NodeId b = bed->host(2).node();
    auto s = co_await net::TcpStream::connect(bed->net, a, b);
    co_await s->send(a, bytes);
    done = bed->eng.now();
  };
  sim::spawn(bed->eng, body());
  sr.run(*bed);
  return done;
}

}  // namespace

RepOut run_paper_reclaim(const RepConfig& cfg, const PaperParams& p) {
  RepOut out;
  HostTrace off(false);
  HostTrace& tr = cfg.trace != nullptr ? *cfg.trace : off;
  Digest dig;
  const std::size_t rep_span = tr.begin("rep.paper_reclaim", "bench");
  // Inputs from the seed: when, within the computation, each migration
  // order and the reclaim land, and each data size within +-0.5% of the
  // paper's.
  sim::Rng in(mix(cfg.seed, 1));
  const auto jitter = [&in](double mb) {
    return mb * (1.0 + 0.01 * (in.uniform() - 0.5));
  };
  const auto note_op = [&](double latency, bool ok) {
    ++out.attempted;
    if (!ok) {
      ++out.op_censored;
      return;
    }
    ++out.completed;
    out.op_latency.push_back(latency);
    if (latency <= kPaperOpLimit) ++out.within_limit;
  };
  out.op_bound = 60.0;

  std::vector<double> t2_obtr, t2_mig, t4, t6;
  if (p.tables) {
    for (double paper_mb : kPaperMb) {
      SubRun sr{out, tr, "table2"};
      const double mb = jitter(paper_mb);
      const auto bytes = static_cast<std::size_t>(mb * 1e6 / 2.0);
      const double raw_tcp = raw_tcp_seconds(bytes, sr);
      std::unique_ptr<Bed> bed;
      std::unique_ptr<mpvm::Mpvm> m;
      std::unique_ptr<opt::PvmOpt> app;
      sr.setup("pvm", [&] { bed = std::make_unique<Bed>(2, kSystemSeed); });
      sr.setup("mpvm", [&] { m = std::make_unique<mpvm::Mpvm>(bed->vm); });
      sr.setup("opt", [&] {
        app = std::make_unique<opt::PvmOpt>(bed->vm, table_opt(mb));
      });
      const double delay = 1.0 + in.uniform();
      mpvm::MigrationStats stats;
      auto job = [&]() -> sim::Proc { (void)co_await app->run(); };
      auto order = [&]() -> sim::Proc {
        while (!app->slaves_are_ready()) co_await app->slaves_ready().wait();
        co_await sim::Delay(bed->eng, delay);  // mid-computation
        stats = co_await m->migrate(app->slave_tid(0), bed->host(2));
      };
      sr.setup("spawn", [&] {
        sim::spawn(bed->eng, job());
        sim::spawn(bed->eng, order());
      });
      sr.run(*bed);
      harvest_mpvm(*m, out, dig, 0);
      note_op(stats.obtrusiveness(), stats.ok);
      t2_obtr.push_back(stats.obtrusiveness());
      t2_mig.push_back(stats.migration_time());
      dig.f64(raw_tcp);
      if (!(raw_tcp <= stats.obtrusiveness() &&
            stats.obtrusiveness() <= stats.migration_time()))
        out.failures.push_back(
            "table2 " + std::to_string(mb) + " MB: raw TCP " +
            std::to_string(raw_tcp) + " <= obtrusiveness " +
            std::to_string(stats.obtrusiveness()) + " <= migration " +
            std::to_string(stats.migration_time()) + " does not hold");
    }

    {
      SubRun sr{out, tr, "table4"};
      std::unique_ptr<Bed> bed;
      std::unique_ptr<upvm::Upvm> u;
      std::unique_ptr<opt::SpmdOpt> app;
      sr.setup("pvm", [&] { bed = std::make_unique<Bed>(2, kSystemSeed); });
      sr.setup("upvm", [&] {
        u = std::make_unique<upvm::Upvm>(bed->vm);
        sim::spawn(bed->eng, u->start());
        out.sum["sim.events"] += static_cast<double>(bed->eng.run());
      });
      sr.setup("opt", [&] {
        app = std::make_unique<opt::SpmdOpt>(*u, table_opt(jitter(0.6)));
      });
      const double delay = 0.5 + in.uniform();
      upvm::UlpMigrationStats stats;
      auto job = [&]() -> sim::Proc {
        (void)co_await app->run();
        u->shutdown();
      };
      auto order = [&]() -> sim::Proc {
        while (!app->slaves_are_ready()) co_await app->slaves_ready().wait();
        co_await sim::Delay(bed->eng, delay);
        // Slave 1 is ULP 2, co-resident with the master on host1.
        stats = co_await u->migrate_ulp(opt::SpmdOpt::slave_inst(1),
                                        bed->host(2));
      };
      sr.setup("spawn", [&] {
        sim::spawn(bed->eng, job());
        sim::spawn(bed->eng, order());
      });
      sr.run(*bed);
      harvest_upvm(*u, out, dig);
      note_op(stats.obtrusiveness(), stats.ok);
      t4 = {stats.obtrusiveness(), stats.migration_time()};
    }

    for (double paper_mb : kPaperMb) {
      SubRun sr{out, tr, "table6"};
      const double mb = jitter(paper_mb);
      std::unique_ptr<Bed> bed;
      std::unique_ptr<opt::AdmOpt> app;
      sr.setup("pvm", [&] { bed = std::make_unique<Bed>(2, kSystemSeed); });
      sr.setup("adm", [&] {
        opt::AdmOptConfig c;
        c.opt = table_opt(mb);
        app = std::make_unique<opt::AdmOpt>(bed->vm, c);
      });
      const double delay = 1.0 + in.uniform();
      opt::OptResult result;
      auto job = [&]() -> sim::Proc { result = co_await app->run(); };
      auto order = [&]() -> sim::Proc {
        while (!app->slaves_are_ready()) co_await app->slaves_ready().wait();
        co_await sim::Delay(bed->eng, delay);
        app->post_event(0, adm::AdmEventKind::kWithdraw);
      };
      sr.setup("spawn", [&] {
        sim::spawn(bed->eng, job());
        sim::spawn(bed->eng, order());
      });
      sr.run(*bed);
      harvest_adm(*app, out, dig);
      const bool ok = app->redistributions().size() == 1;
      note_op(ok ? app->redistributions()[0].migration_time() : 0, ok);
      t6.push_back(ok ? app->redistributions()[0].migration_time() : 0);
      if (app->final_data_checksum() != result.data_checksum)
        out.failures.push_back("table6 " + std::to_string(mb) +
                               " MB: ADM exemplars not conserved");
    }
    for (const auto* v : {&t2_obtr, &t2_mig, &t4, &t6})
      out.paper.insert(out.paper.end(), v->begin(), v->end());
  }

  // Opt under the reclaim, once per migration system.
  opt::OptConfig oc;
  oc.data_bytes = static_cast<std::size_t>(jitter(p.opt_mb) * 1e6);
  oc.nslaves = 3;
  oc.iterations = p.opt_iterations > 0 ? p.opt_iterations
                                       : calib::OptWorkload{}.iterations_large;
  oc.real_math = false;
  oc.master_host = "host1";
  oc.slave_hosts = {"host1", "host2", "host3"};
  const double reclaim_at = 29.0 + 2.0 * in.uniform();
  dig.f64(reclaim_at);

  const auto opt_run = [&](const char* what, auto&& build) {
    SubRun sr{out, tr, what};
    std::unique_ptr<Bed> bed;
    std::unique_ptr<gs::GlobalScheduler> g;
    std::unique_ptr<os::ScriptedOwner> owner;
    sr.setup("pvm", [&] { bed = std::make_unique<Bed>(3, kSystemSeed); });
    sr.setup("gs", [&] { g = std::make_unique<gs::GlobalScheduler>(bed->vm); });
    sr.setup("os", [&] {
      owner = std::make_unique<os::ScriptedOwner>(
          bed->eng, std::vector<os::OwnerEvent>{os::OwnerEvent(
                        reclaim_at, bed->host(2), os::OwnerAction::kReclaim,
                        2)});
      owner->set_observer(
          [&g](const os::OwnerEvent& ev) { g->on_owner_event(ev); });
      owner->start();
    });
    opt::OptResult result;
    build(sr, *bed, *g, result);
    harvest_gs(*g, out, dig);
    if (result.iterations_done != oc.iterations)
      out.failures.push_back(std::string(what) + ": Opt ran " +
                             std::to_string(result.iterations_done) + " of " +
                             std::to_string(oc.iterations) + " iterations");
    out.makespan.push_back(result.runtime());
    dig.f64(result.runtime());
    dig.u64(result.net_checksum);
  };
  const auto job_hosts = [](Bed& bed) {
    return std::vector<os::Host*>{&bed.host(1), &bed.host(2), &bed.host(3)};
  };

  opt_run("opt_mpvm", [&](SubRun& sr, Bed& bed, gs::GlobalScheduler& g,
                          opt::OptResult& result) {
    std::unique_ptr<mpvm::Mpvm> m;
    std::unique_ptr<opt::PvmOpt> app;
    sr.setup("mpvm", [&] {
      m = std::make_unique<mpvm::Mpvm>(bed.vm);
      g.attach(*m);
    });
    sr.setup("opt", [&] { app = std::make_unique<opt::PvmOpt>(bed.vm, oc); });
    auto job = [&]() -> sim::Proc { result = co_await app->run(); };
    sr.setup("spawn", [&] { sim::spawn(bed.eng, job()); });
    sr.run(bed, job_hosts(bed), reclaim_at);
    harvest_mpvm(*m, out, dig, 0);
    out.sum["gs.migrations.completed"] +=
        static_cast<double>(m->history().size());
    for (const mpvm::MigrationStats& s : m->history())
      note_op(s.obtrusiveness(), true);
    for (std::uint64_t i = 0;
         i < static_cast<std::uint64_t>(
                 bed.vm.metrics().counter("mpvm.migrations.failed").value());
         ++i)
      note_op(0, false);
  });

  opt_run("opt_upvm", [&](SubRun& sr, Bed& bed, gs::GlobalScheduler& g,
                          opt::OptResult& result) {
    std::unique_ptr<upvm::Upvm> u;
    std::unique_ptr<opt::SpmdOpt> app;
    sr.setup("upvm", [&] {
      u = std::make_unique<upvm::Upvm>(bed.vm);
      g.attach(*u);
      sim::spawn(bed.eng, u->start());
      out.sum["sim.events"] += static_cast<double>(bed.eng.run());
    });
    sr.setup("opt", [&] { app = std::make_unique<opt::SpmdOpt>(*u, oc); });
    auto job = [&]() -> sim::Proc {
      result = co_await app->run();
      u->shutdown();
    };
    sr.setup("spawn", [&] { sim::spawn(bed.eng, job()); });
    sr.run(bed, job_hosts(bed), reclaim_at);
    harvest_upvm(*u, out, dig);
    out.sum["gs.migrations.completed"] +=
        static_cast<double>(u->history().size());
    for (const upvm::UlpMigrationStats& s : u->history())
      note_op(s.obtrusiveness(), true);
    for (std::uint64_t i = 0;
         i < static_cast<std::uint64_t>(
                 bed.vm.metrics().counter("upvm.migrations.aborted").value());
         ++i)
      note_op(0, false);
  });

  opt_run("opt_adm", [&](SubRun& sr, Bed& bed, gs::GlobalScheduler& g,
                         opt::OptResult& result) {
    std::unique_ptr<opt::AdmOpt> app;
    sr.setup("adm", [&] {
      opt::AdmOptConfig c;
      c.opt = oc;
      app = std::make_unique<opt::AdmOpt>(bed.vm, c);
      g.attach(*app);
    });
    auto job = [&]() -> sim::Proc { result = co_await app->run(); };
    sr.setup("spawn", [&] { sim::spawn(bed.eng, job()); });
    sr.run(bed, job_hosts(bed), reclaim_at);
    harvest_adm(*app, out, dig);
    for (const opt::AdmRedistStats& s : app->redistributions())
      note_op(s.migration_time(), true);
    if (app->final_data_checksum() != result.data_checksum)
      out.failures.push_back("opt_adm: ADM exemplars not conserved");
  });

  out.digest = dig.value();
  tr.end(rep_span);
  return out;
}

}  // namespace perfbench
