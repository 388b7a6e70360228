// Figure 1 — the stages of MPVM migration (§2.1).
//
// The paper's figure is a protocol diagram: migration event, message
// flushing, VP state transfer to the skeleton, restart.  This bench runs one
// real migration (a 4.2 MB PVM_opt slave) and prints the measured timeline
// of exactly those stages, then the protocol's own span tree.  It exits
// nonzero unless the mpvm.migrate span and its four stage spans closed Ok,
// each at the instant its MigrationStats timestamp records, and the trace
// audit is clean.
#include "bench/bench_util.hpp"

int main() {
  using namespace cpe;
  bench::print_header(
      "Figure 1: MPVM migration stage timeline",
      "stages: migration event -> message flushing -> VP state transfer -> "
      "restart");

  bench::Testbed tb;
  mpvm::Mpvm mpvm(tb.vm);
  opt::PvmOpt app(tb.vm, bench::paper_opt_config(4.2));
  auto driver = [&]() -> sim::Proc { (void)co_await app.run(); };
  sim::spawn(tb.eng, driver());
  mpvm::MigrationStats stats;
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(tb.eng, 1.0);
    stats = co_await mpvm.migrate(app.slave_tid(0), tb.host2);
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run();

  const double t0 = stats.event_time;
  std::printf("  t=%7.3f s  stage 1: migration event (GS -> mpvmd on %s)\n",
              0.0, stats.from_host.c_str());
  std::printf(
      "  t=%7.3f s  ....... SIGMIGRATE delivered, task frozen mid-burst\n",
      stats.frozen_time - t0);
  std::printf(
      "  t=%7.3f s  stage 2: message flushing complete (all tasks acked; "
      "senders to VP1 blocked)\n",
      stats.flush_done - t0);
  std::printf(
      "  t=%7.3f s  stage 3: state transfer complete (%zu bytes to the "
      "skeleton over TCP)  <- obtrusiveness %.3f s\n",
      stats.transfer_done - t0, stats.state_bytes, stats.obtrusiveness());
  std::printf(
      "  t=%7.3f s  stage 4: restart (re-enrolled on %s, new tid broadcast, "
      "senders unblocked)  <- migration cost %.3f s\n",
      stats.restart_done - t0, stats.to_host.c_str(),
      stats.migration_time());

  std::printf("\n  Protocol spans ('mpvm.*'):\n");
  const obs::SpanTracer& sp = tb.vm.spans();
  bench::print_spans(sp, "mpvm.");

  bool shape_ok = stats.ok;
  shape_ok &= bench::span_closed_at(sp, "mpvm.migrate", stats.restart_done);
  shape_ok &= bench::span_closed_at(sp, "mpvm.freeze", stats.frozen_time);
  shape_ok &= bench::span_closed_at(sp, "mpvm.flush", stats.flush_done);
  shape_ok &= bench::span_closed_at(sp, "mpvm.transfer", stats.transfer_done);
  shape_ok &= bench::span_closed_at(sp, "mpvm.restart", stats.restart_done);
  std::printf(
      "\n  Shape check (migrate + four stage spans closed Ok at their stats "
      "instants): %s\n",
      shape_ok ? "PASS" : "FAIL");
  std::vector<obs::SpanRecord> spans;
  bench::collect_spans(tb.vm, spans);
  const bool audit_ok = bench::audit_spans(spans);
  return audit_ok && shape_ok ? 0 : 1;
}
