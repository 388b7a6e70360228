// Figure 3 — the stages of a UPVM ULP migration (§2.2).
//
// One slave ULP of SPMD_opt (0.6 MB run) migrates; the bench prints the
// timeline of the four stages the paper's figure shows: migration event +
// context capture, flush (with immediate redirection of future messages),
// state off-load via pvm_pkbyte/pvm_send, and accept/re-queue at the
// destination — then the protocol's own span tree.  It exits nonzero unless
// the upvm.migrate span and its four stage spans closed Ok, each at the
// instant its UlpMigrationStats timestamp records, and the trace audit is
// clean.
#include "bench/bench_util.hpp"

int main() {
  using namespace cpe;
  bench::print_header(
      "Figure 3: UPVM ULP migration stage timeline",
      "stages: migration event -> flush (redirect) -> state transfer via "
      "pk/send -> restart in scheduler queue");

  bench::Testbed tb;
  upvm::Upvm upvm(tb.vm);
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

  const double t0 = stats.event_time;
  std::printf("  t=%7.3f s  stage 1: migration event at the process on %s\n",
              0.0, stats.from_host.c_str());
  std::printf(
      "  t=%7.3f s  ....... ULP interrupted, register context captured\n",
      stats.captured_time - t0);
  std::printf(
      "  t=%7.3f s  stage 2: flush acked by every process; future messages "
      "now sent directly to %s (no sender blocking)\n",
      stats.flush_done - t0, stats.to_host.c_str());
  std::printf(
      "  t=%7.3f s  stage 3: state (%zu bytes incl. unreceived messages) "
      "off-loaded via pvm_pkbyte/pvm_send  <- obtrusiveness %.3f s\n",
      stats.offload_done - t0, stats.state_bytes, stats.obtrusiveness());
  std::printf(
      "  t=%7.3f s  stage 4: accepted and placed in the scheduler queue on "
      "%s  <- migration cost %.3f s\n",
      stats.accept_done - t0, stats.to_host.c_str(), stats.migration_time());

  std::printf("\n  Protocol spans ('upvm.*'):\n");
  const obs::SpanTracer& sp = tb.vm.spans();
  bench::print_spans(sp, "upvm.");

  bool shape_ok = stats.ok;
  shape_ok &= bench::span_closed_at(sp, "upvm.migrate", stats.accept_done);
  shape_ok &= bench::span_closed_at(sp, "upvm.capture", stats.captured_time);
  shape_ok &= bench::span_closed_at(sp, "upvm.flush", stats.flush_done);
  shape_ok &= bench::span_closed_at(sp, "upvm.offload", stats.offload_done);
  shape_ok &= bench::span_closed_at(sp, "upvm.accept", stats.accept_done);
  std::printf(
      "\n  Shape check (migrate + four stage spans closed Ok at their stats "
      "instants): %s\n",
      shape_ok ? "PASS" : "FAIL");
  std::vector<obs::SpanRecord> spans;
  bench::collect_spans(tb.vm, spans);
  const bool audit_ok = bench::audit_spans(spans);
  return audit_ok && shape_ok ? 0 : 1;
}
