// Ablation A3 — what UPVM's intra-process buffer hand-off is worth
// (§4.2.1, the mechanism behind Table 3's UPVM win).
//
// SPMD_opt at 0.6 MB on a *single* workstation (one container, master and
// both slaves co-resident, every message intra-process), run twice: with
// the hand-off (UPVM's behaviour) and with it disabled so local messages
// pay the same sender-side copy + through-the-daemon delivery as stock PVM.
// The single-host setup exposes the full cost: on the paper's two-host
// testbed much of it hides behind the remote slave's critical path, which
// is why Table 3's delta is small.
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

double run(bool handoff) {
  sim::Engine eng;
  net::Network net(eng);
  os::Host host1(eng, net, os::HostConfig("host1", "HPPA", 1.0));
  pvm::PvmSystem vm(eng, net);
  vm.add_host(host1);
  upvm::UpvmOptions opts;
  opts.disable_local_handoff = !handoff;
  upvm::Upvm upvm(vm, opts);
  sim::spawn(eng, upvm.start());
  eng.run();
  opt::SpmdOpt app(upvm, bench::paper_opt_config(0.6));
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc {
    r = co_await app.run();
    upvm.shutdown();
  };
  sim::spawn(eng, driver());
  eng.run();
  return r.runtime();
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A3: UPVM local buffer hand-off on/off (SPMD_opt, 0.6 MB, single host)",
      "§4.2.1 — \"instead of copying the PVM message buffer ... the UPVM "
      "library ... directly hands-off the buffer to the destination ULP\"");

  const double with = run(true);
  const double without = run(false);
  std::printf("  %-40s %8.3f s\n", "hand-off enabled (UPVM)", with);
  std::printf("  %-40s %8.3f s\n", "hand-off disabled (PVM local route)",
              without);
  std::printf("\n  hand-off saves %.3f s (%.1f%%) on this run\n",
              without - with, (without - with) / without * 100.0);
  const bool ok = with < without;
  std::printf("  Shape check (hand-off strictly faster): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
