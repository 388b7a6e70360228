// Ablation A5 — global scheduler policy comparison under a stochastic owner
// workload (§2.0's CPE "decision-making policies").
//
// PVM_opt (9 MB) under MPVM on two hosts whose owners come and go (renewal
// process, exponential idle/busy periods, sometimes reclaiming the whole
// machine).  Policies compared over several seeds:
//   * none            — no scheduler; the job rides out every owner period;
//   * reclaim-only    — vacate a machine when its owner reclaims it;
//   * reclaim + load  — additionally migrate off any host whose runnable
//                       load exceeds a threshold.
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

enum class Policy { kNone, kReclaim, kReclaimPlusLoad };

double run(Policy policy, std::uint64_t seed) {
  bench::Testbed tb;
  // A third, initially idle machine gives the scheduler somewhere to go.
  os::Host host3(tb.eng, tb.net, os::HostConfig("host3", "HPPA", 1.0));
  tb.vm.add_host(host3);

  mpvm::Mpvm mpvm(tb.vm);
  gs::GsPolicy p;
  p.vacate_on_reclaim = policy != Policy::kNone;
  if (policy == Policy::kReclaimPlusLoad) p.load_threshold = 1.9;
  gs::GlobalScheduler sched(tb.vm, p);
  sched.attach(mpvm);

  opt::PvmOpt app(tb.vm, bench::paper_opt_config(9.0));
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(tb.eng, driver());

  os::StochasticOwner::Params op;
  op.mean_idle = 80.0;
  op.mean_busy = 60.0;
  op.jobs = 2;
  op.reclaim_probability = 0.5;
  os::StochasticOwner owner(tb.eng, {&tb.host1, &tb.host2}, op,
                            sim::Rng(seed));
  if (policy != Policy::kNone)
    owner.set_observer(
        [&](const os::OwnerEvent& ev) { sched.on_owner_event(ev); });
  owner.start(/*until=*/2000.0);
  if (policy == Policy::kReclaimPlusLoad) sched.start_monitoring(2000.0);

  tb.eng.run();
  return r.runtime();
}

double average(Policy policy) {
  double sum = 0;
  constexpr int kSeeds = 5;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) sum += run(policy, s);
  return sum / kSeeds;
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A5: global scheduler policies under a stochastic owner "
      "workload",
      "PVM_opt 9 MB under MPVM; 2 owned hosts + 1 idle pool host; mean over "
      "5 seeds");

  const double none = average(Policy::kNone);
  const double reclaim = average(Policy::kReclaim);
  const double both = average(Policy::kReclaimPlusLoad);
  std::printf("  %-36s %8.1f s\n", "no scheduling", none);
  std::printf("  %-36s %8.1f s\n", "vacate on reclaim", reclaim);
  std::printf("  %-36s %8.1f s\n", "reclaim + load threshold", both);
  const bool ok = reclaim < none && both <= reclaim * 1.05;
  std::printf(
      "\n  Shape check (adaptive policies beat none; load policy helps "
      "further or ties): %s\n",
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
