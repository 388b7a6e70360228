// Ablation A2 — redistribution granularity (§3.4).
//
// Three hosts, one of them half speed.  A fixed amount of data-parallel work
// must be balanced across them:
//   * MPVM distributes whole processes (3 slaves -> 1 per host): the slow
//     host's slave straggles, and whole-process moves cannot fix a ratio;
//   * UPVM distributes ULPs (10 ULPs): moving individual ULPs approximates
//     the 2:2:1 speed ratio much better;
//   * ADM repartitions the data itself with per-exemplar precision — the
//     "potentially ideal load balance" of §3.4.3.
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

struct Worknet3 {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  os::Host host3{eng, net, os::HostConfig("host3", "HPPA", 0.5)};
  pvm::PvmSystem vm{eng, net};
  Worknet3() {
    vm.add_host(host1);
    vm.add_host(host2);
    vm.add_host(host3);
  }
};

constexpr double kTotalWork = 300.0;  // reference-seconds of slave work

// Whole-process granularity: one slave per host, equal work each.
double run_processes() {
  Worknet3 w;
  double finished = 0;
  w.vm.register_program("slave", [&](pvm::Task& t) -> sim::Co<void> {
    co_await t.compute(kTotalWork / 3);
    finished = std::max(finished, w.eng.now());
  });
  auto driver = [&]() -> sim::Proc {
    co_await w.vm.spawn("slave", 1, "host1");
    co_await w.vm.spawn("slave", 1, "host2");
    co_await w.vm.spawn("slave", 1, "host3");
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  return finished;
}

// ULP granularity: 10 equal ULPs placed 4/4/2 by the scheduler.
double run_ulps() {
  Worknet3 w;
  upvm::Upvm upvm(w.vm);
  sim::spawn(w.eng, upvm.start());
  w.eng.run();
  const double start = w.eng.now();
  double finished = 0;
  upvm.run_spmd(
      [&](upvm::Ulp& u) -> sim::Co<void> {
        co_await u.compute(kTotalWork / 10);
        finished = std::max(finished, w.eng.now());
        (void)u;
      },
      10);
  // Round-robin puts 4,3,3 on hosts 1,2,3; move one ULP off the slow host
  // (what a granularity-aware GS does).
  auto rebalance = [&]() -> sim::Proc {
    co_await sim::Delay(w.eng, 1.0);
    co_await upvm.migrate_ulp(5, w.host1);  // ULP5 lives on host3
  };
  sim::spawn(w.eng, rebalance());
  w.eng.run();
  return finished - start;
}

// Data granularity: weighted shares proportional to speed, per exemplar.
double run_adm() {
  Worknet3 w;
  opt::AdmOptConfig cfg;
  cfg.opt = bench::paper_opt_config(4.2);
  cfg.opt.nslaves = 3;
  cfg.opt.slave_hosts = {"host1", "host2", "host3"};
  cfg.partition_weights = {1.0, 1.0, 0.5};  // speeds
  opt::AdmOpt app(w.vm, cfg);
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(w.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    app.post_event(0, adm::AdmEventKind::kRebalance);
  };
  sim::spawn(w.eng, gs());
  w.eng.run();
  return r.runtime();
}

// Same ADM run but with the naive equal partition (no weighting).
double run_adm_equal() {
  Worknet3 w;
  opt::AdmOptConfig cfg;
  cfg.opt = bench::paper_opt_config(4.2);
  cfg.opt.nslaves = 3;
  cfg.opt.slave_hosts = {"host1", "host2", "host3"};
  opt::AdmOpt app(w.vm, cfg);
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(w.eng, driver());
  w.eng.run();
  return r.runtime();
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A2: redistribution granularity on heterogeneous hosts",
      "§3.4 — process-grain (MPVM) < ULP-grain (UPVM) < data-grain (ADM) "
      "in achievable balance; hosts at speeds 1.0/1.0/0.5");

  const double procs = run_processes();
  const double ulps = run_ulps();
  const double adm_weighted = run_adm();
  const double adm_equal = run_adm_equal();
  const double ideal = kTotalWork / 2.5;  // perfectly balanced makespan

  std::printf("  %-44s %8.1f s\n",
              "whole processes, 1/host (MPVM granularity)", procs);
  std::printf("  %-44s %8.1f s\n", "10 ULPs, one moved off the slow host",
              ulps);
  std::printf("  (ideal makespan for %g ref-s over speeds 1+1+0.5: %.1f s)\n",
              kTotalWork, ideal);
  std::printf("\n  ADMopt 4.2 MB, 3 slaves:\n");
  std::printf("  %-44s %8.1f s\n", "equal partition (ignores speed)",
              adm_equal);
  std::printf("  %-44s %8.1f s\n", "speed-weighted partition (2:2:1)",
              adm_weighted);
  const bool ok = ulps < procs && adm_weighted < adm_equal;
  std::printf(
      "\n  Shape check (finer granularity -> better balance): %s\n",
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
