// Ablation A9 — migrate-anywhere (UPVM) vs migration only at safe points
// (the Data Parallel C restriction the paper contrasts with in §5.0: "VP
// migration is possible only at the beginning or end of code segments").
//
// The cost of the restriction is *responsiveness*: a migration order that
// arrives mid-segment must wait for the segment to finish.  Measured with a
// ULP whose compute segments are seconds long — the response time (event to
// context captured) and total migration time stretch by the remaining
// segment length, while UPVM's asynchronous interrupt reacts in
// milliseconds regardless.
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

upvm::UlpMigrationStats run(bool safe_points, double segment_seconds) {
  bench::Testbed tb;
  upvm::UpvmOptions opts;
  opts.migrate_at_safe_points_only = safe_points;
  upvm::Upvm upvm(tb.vm, opts);
  sim::spawn(tb.eng, upvm.start());
  tb.eng.run();
  upvm.run_spmd(
      [segment_seconds](upvm::Ulp& u) -> sim::Co<void> {
        if (u.inst() != 0) co_return;
        u.set_data_bytes(300'000);
        for (int seg = 0; seg < 40; ++seg)
          co_await u.compute(segment_seconds);
      },
      2);
  upvm::UlpMigrationStats stats;
  auto gs = [&]() -> sim::Proc {
    // Arrive just after a segment starts: worst case for the restriction.
    co_await sim::Delay(tb.eng, 2.0 + segment_seconds * 0.1);
    stats = co_await upvm.migrate_ulp(0, tb.host2);
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run_until(600.0);
  return stats;
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A9: asynchronous ULP migration vs DPC-style safe points",
      "§5.0 — in DPC, \"VP migration is possible only at the beginning or "
      "end of code segments\"");

  bool ok = true;
  for (double seg : {1.0, 4.0, 10.0}) {
    const auto any = run(false, seg);
    const auto safe = run(true, seg);
    const double resp_any = any.captured_time - any.event_time;
    const double resp_safe = safe.captured_time - safe.event_time;
    std::printf(
        "  segment %5.1f s:  response anytime %7.4f s   safe-points %7.3f s "
        "  (migration total %6.2f vs %6.2f s)\n",
        seg, resp_any, resp_safe, any.migration_time(),
        safe.migration_time());
    // The safe-point wait depends on where in the segment the order lands;
    // the invariant is orders-of-magnitude worse responsiveness.
    ok = ok && resp_any < 0.01 && resp_safe > 100 * resp_any &&
         resp_safe < seg + 0.1;
  }
  std::printf(
      "\n  Shape check (anytime responds in ms; safe-points wait out the "
      "segment): %s\n",
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
