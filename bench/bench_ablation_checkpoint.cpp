// Ablation A8 — migrate-current-state (MPVM) vs Condor-style
// checkpoint/restart, the design alternative weighed in the paper's §5.0.
//
// A 9 MB Opt run with one owner reclamation at t=90 s.  MPVM vacates by
// moving the live state (obtrusive for seconds, nothing lost).  The
// checkpointing system vacates instantly but (a) pays a periodic freeze +
// network write while running quietly, and (b) re-executes the work done
// since the last checkpoint.  The checkpoint-interval sweep exposes the
// trade-off the paper describes.
#include "bench/bench_util.hpp"

#include "mpvm/checkpoint.hpp"

namespace {
using namespace cpe;

struct Result {
  double runtime = 0;
  double obtrusiveness = 0;
  double overhead_time = 0;  ///< periodic checkpoint freezes
  double redo = 0;
};

Result run_mpvm() {
  bench::Testbed tb;
  os::Host server(tb.eng, tb.net, os::HostConfig("ckptsrv", "HPPA", 1.0));
  tb.vm.add_host(server);
  mpvm::Mpvm mpvm(tb.vm);
  opt::PvmOpt app(tb.vm, bench::paper_opt_config(9.0));
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(tb.eng, driver());
  Result out;
  auto gs = [&]() -> sim::Proc {
    co_await sim::Delay(tb.eng, 90.0);
    mpvm::MigrationStats s = co_await mpvm.migrate(app.slave_tid(0),
                                                   tb.host2);
    out.obtrusiveness = s.obtrusiveness();
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run();
  out.runtime = r.runtime();
  return out;
}

Result run_checkpoint(double interval) {
  bench::Testbed tb;
  os::Host server(tb.eng, tb.net, os::HostConfig("ckptsrv", "HPPA", 1.0));
  tb.vm.add_host(server);
  mpvm::Mpvm mpvm(tb.vm);  // restart handlers
  mpvm::CheckpointOptions opts;
  opts.interval = interval;
  mpvm::Checkpointer ckpt(tb.vm, server, opts);
  opt::PvmOpt app(tb.vm, bench::paper_opt_config(9.0));
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(tb.eng, driver());
  Result out;
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    ckpt.watch(app.slave_tid(0));
    co_await sim::Delay(tb.eng, 90.0);
    mpvm::CkptVacateStats s =
        co_await ckpt.vacate_restart(app.slave_tid(0), tb.host2);
    out.obtrusiveness = s.obtrusiveness();
    out.redo = s.redo_work;
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run();
  out.runtime = r.runtime();
  const mpvm::CheckpointStats* s = ckpt.stats_for(app.slave_tid(0));
  if (s != nullptr) out.overhead_time = s->total_checkpoint_time;
  return out;
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A8: MPVM migrate-current-state vs Condor-style "
      "checkpoint/restart",
      "§5.0 — \"the checkpoint approach makes migration less obtrusive, "
      "[but] there is a cost of taking periodic checkpoints\" and work may "
      "re-execute");

  const Result m = run_mpvm();
  std::printf(
      "  %-26s runtime %7.1f s   obtrusiveness %6.3f s   ckpt-overhead %5.1f "
      "s   redo %5.1f s\n",
      "MPVM (move live state)", m.runtime, m.obtrusiveness, 0.0, 0.0);
  bool shapes = true;
  for (double interval : {30.0, 60.0, 120.0}) {
    const Result c = run_checkpoint(interval);
    std::printf(
        "  ckpt every %5.0f s        runtime %7.1f s   obtrusiveness %6.3f s "
        "  ckpt-overhead %5.1f s   redo %5.1f s\n",
        interval, c.runtime, c.obtrusiveness, c.overhead_time, c.redo);
    shapes = shapes && c.obtrusiveness < m.obtrusiveness / 10 &&
             c.redo <= interval + 1.0;
  }
  std::printf(
      "\n  Shape check (checkpointing vacates orders of magnitude less "
      "obtrusively; lost work bounded by the interval; quiet overhead grows "
      "as the interval shrinks): %s\n",
      shapes ? "PASS" : "FAIL");
  return shapes ? 0 : 1;
}
