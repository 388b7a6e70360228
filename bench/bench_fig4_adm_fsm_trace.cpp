// Figure 4 — the finite-state-machine program structure of ADMopt (§2.3).
//
// The paper's figure shows the coarse-level FSM every ADM process executes:
// computing, redistribution, inactivity, completion.  This bench drives
// ADMopt through the full cycle — withdraw (owner reclaims host1), rejoin
// (owner leaves again), completion — and prints every state transition the
// slaves actually made, from their `adm.fsm` spans.  It exits nonzero unless
// the data is conserved, every slave's FSM path ends in `done`, and the
// trace audit is clean.
#include "bench/bench_util.hpp"

int main() {
  using namespace cpe;
  bench::print_header(
      "Figure 4: ADM finite-state-machine trace",
      "states: computing / redistributing / inactive / done; paths for "
      "normal computing, migration + redistribution, and inactivity");

  bench::Testbed tb;
  opt::AdmOptConfig cfg;
  cfg.opt = bench::paper_opt_config(0.6);
  cfg.opt.iterations = 12;
  opt::AdmOpt app(tb.vm, cfg);
  opt::OptResult result;
  auto driver = [&]() -> sim::Proc { result = co_await app.run(); };
  sim::spawn(tb.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(tb.eng, 0.5);
    app.post_event(0, adm::AdmEventKind::kWithdraw);  // owner reclaims host1
    co_await sim::Delay(tb.eng, 2.5);
    app.post_event(0, adm::AdmEventKind::kRejoin);    // owner leaves again
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run();

  std::printf("  FSM transitions ('adm.fsm' spans):\n");
  bench::print_spans(tb.vm.spans(), "adm.fsm");

  std::printf("\n  Redistribution events:\n");
  for (const auto& s : app.redistributions())
    std::printf("    slave %d: %s, event->resume %.3f s\n", s.slave,
                adm::to_string(s.kind), s.migration_time());
  const bool conserved = app.final_data_checksum() == result.data_checksum;
  std::printf("\n  Run completed: %d iterations, data conserved: %s\n",
              result.iterations_done, conserved ? "yes" : "NO (bug!)");

  // Each slave's last transition, by its `slave` attribute.
  std::vector<std::string> last(static_cast<std::size_t>(cfg.opt.nslaves));
  for (const obs::SpanRecord& s : tb.vm.spans().spans()) {
    if (s.name != "adm.fsm") continue;
    const std::size_t slave = std::stoul(*s.attr("slave"));
    if (slave < last.size()) last[slave] = *s.attr("to");
  }
  bool all_done = true;
  for (const std::string& state : last) all_done &= state == "done";
  const bool shape_ok = conserved && all_done;
  std::printf(
      "  Shape check (data conserved; every slave's FSM path ends in done): "
      "%s\n",
      shape_ok ? "PASS" : "FAIL");
  std::vector<obs::SpanRecord> spans;
  bench::collect_spans(tb.vm, spans);
  const bool audit_ok = bench::audit_spans(spans);
  return audit_ok && shape_ok ? 0 : 1;
}
