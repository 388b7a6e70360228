// Ablation A4 — the ULP accept path: the paper's slow implementation vs the
// optimized one the authors promise (§4.2.3).
//
// "Given that the obtrusiveness cost is 1.67 seconds, it is surprising that
// the migration cost is 6.88 seconds ... We attribute this to the current
// implementation of the ULP accepting mechanism ... We are currently working
// on optimizing the entire migration mechanism."  This bench quantifies what
// that optimization is worth.
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

upvm::UlpMigrationStats run(bool optimized) {
  bench::Testbed tb;
  upvm::UpvmOptions opts;
  opts.optimized_accept = optimized;
  upvm::Upvm upvm(tb.vm, opts);
  sim::spawn(tb.eng, upvm.start());
  tb.eng.run();
  opt::SpmdOpt app(upvm, bench::paper_opt_config(0.6));
  auto driver = [&]() -> sim::Proc {
    (void)co_await app.run();
    upvm.shutdown();
  };
  sim::spawn(tb.eng, driver());
  upvm::UlpMigrationStats stats;
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(tb.eng, 0.5);
    stats = co_await upvm.migrate_ulp(opt::SpmdOpt::slave_inst(1), tb.host2);
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run();
  return stats;
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A4: ULP accept path, paper's implementation vs optimized",
      "§4.2.3 — migration 6.88 s vs obtrusiveness 1.67 s at 0.6 MB");

  const auto slow = run(false);
  const auto fast = run(true);
  std::printf("  %-28s obtrusiveness %6.2f s   migration %6.2f s\n",
              "paper's accept (upkbyte)", slow.obtrusiveness(),
              slow.migration_time());
  std::printf("  %-28s obtrusiveness %6.2f s   migration %6.2f s\n",
              "optimized accept", fast.obtrusiveness(),
              fast.migration_time());
  std::printf(
      "\n  The optimization removes %.2f s of migration latency; "
      "obtrusiveness is untouched (it is a source-side cost).\n",
      slow.migration_time() - fast.migration_time());
  const bool ok =
      fast.migration_time() < slow.migration_time() - 3.0 &&
      std::abs(fast.obtrusiveness() - slow.obtrusiveness()) < 0.1;
  std::printf("  Shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
