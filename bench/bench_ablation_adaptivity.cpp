// Ablation A1 — the point of the whole paper (§1): when an owner reclaims a
// workstation mid-run, what does adaptivity buy?
//
// Scenario: Opt with 3 slaves on 3 workstations (9 MB set).  At t=30 s the
// owner of host2 comes back with two heavyweight jobs and stays for the rest
// of the run.  Compared:
//   * no migration — host2's slave runs at 1/3 speed and every iteration
//     waits for it (the paper's "entire parallel application can slow"
//     observation);
//   * MPVM + GS    — host2's slave process migrates to the least-loaded
//     peer, which then time-shares two slaves at full machine speed;
//   * ADM + GS     — host2's slave withdraws; its *data* is repartitioned
//     over the two remaining slaves (finer-grained, so slightly better
//     balance than doubling up whole processes).
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

constexpr double kOwnerArrives = 30.0;
constexpr int kOwnerJobs = 2;

struct Worknet3 {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  os::Host host3{eng, net, os::HostConfig("host3", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};
  Worknet3() {
    vm.add_host(host1);
    vm.add_host(host2);
    vm.add_host(host3);
  }
};

opt::OptConfig three_slave_config() {
  opt::OptConfig cfg = bench::paper_opt_config(9.0);
  cfg.nslaves = 3;
  cfg.slave_hosts = {"host1", "host2", "host3"};
  return cfg;
}

double run_none() {
  Worknet3 w;
  opt::PvmOpt app(w.vm, three_slave_config());
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(w.eng, driver());
  os::ScriptedOwner owner(
      w.eng, {os::OwnerEvent(kOwnerArrives, w.host2, os::OwnerAction::kReclaim,
                             kOwnerJobs)});
  owner.start();
  w.eng.run();
  return r.runtime();
}

double run_mpvm() {
  Worknet3 w;
  mpvm::Mpvm mpvm(w.vm);
  gs::GlobalScheduler sched(w.vm);
  sched.attach(mpvm);
  opt::PvmOpt app(w.vm, three_slave_config());
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(w.eng, driver());
  os::ScriptedOwner owner(
      w.eng, {os::OwnerEvent(kOwnerArrives, w.host2, os::OwnerAction::kReclaim,
                             kOwnerJobs)});
  owner.set_observer(
      [&](const os::OwnerEvent& ev) { sched.on_owner_event(ev); });
  owner.start();
  w.eng.run();
  return r.runtime();
}

double run_adm() {
  Worknet3 w;
  opt::AdmOptConfig cfg;
  cfg.opt = three_slave_config();
  opt::AdmOpt app(w.vm, cfg);
  gs::GlobalScheduler sched(w.vm);
  sched.attach(app);
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(w.eng, driver());
  os::ScriptedOwner owner(
      w.eng, {os::OwnerEvent(kOwnerArrives, w.host2, os::OwnerAction::kReclaim,
                             kOwnerJobs)});
  owner.set_observer(
      [&](const os::OwnerEvent& ev) { sched.on_owner_event(ev); });
  owner.start();
  w.eng.run();
  return r.runtime();
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A1: adaptivity win under owner reclamation",
      "§1 motivation — \"an entire parallel application can slow because "
      "one of its processes is executing on a heavily loaded workstation\"");

  const double none = run_none();
  const double with_mpvm = run_mpvm();
  const double with_adm = run_adm();
  std::printf(
      "  Opt, 9 MB, 3 slaves on 3 hosts; owner reclaims host2 at t=%.0f s "
      "with %d jobs\n\n",
      kOwnerArrives, kOwnerJobs);
  std::printf("  %-40s %8.1f s\n", "no migration (stock PVM)", none);
  std::printf("  %-40s %8.1f s\n", "MPVM + global scheduler", with_mpvm);
  std::printf("  %-40s %8.1f s\n",
              "ADM + global scheduler (data withdraw)", with_adm);
  const bool pass = with_mpvm < none && with_adm < none && with_adm < with_mpvm;
  std::printf(
      "\n  Shape check (both adaptive systems beat no-migration; ADM's "
      "finer granularity beats doubling processes): %s\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
