// Ablation A7 — PVM message routing: default (via the daemons) vs the
// direct task-to-task TCP route.
//
// Real PVM 3 offers pvm_setopt(PvmRoute, PvmRouteDirect) for exactly this
// trade-off: the default route pays per-fragment daemon turnarounds and two
// extra local-socket hops; the direct route pays one connection setup per
// pair, then streams at TCP goodput.  Measured here: bulk point-to-point
// transfers, small-message round-trip latency, and the full Opt run.
#include "bench/bench_util.hpp"

namespace {
using namespace cpe;

double bulk_transfer(bool direct, std::size_t bytes) {
  bench::Testbed tb;
  double start = -1, delivered = -1;
  tb.vm.register_program("dst", [&](pvm::Task& t) -> sim::Co<void> {
    co_await t.recv(pvm::kAny, 1);
    delivered = tb.eng.now();
  });
  tb.vm.register_program("src", [&, direct, bytes](pvm::Task& t)
                             -> sim::Co<void> {
    t.set_direct_route(direct);
    t.initsend().pk_double(std::vector<double>(bytes / 8, 0.0));
    start = tb.eng.now();
    co_await t.send(pvm::Tid::make(1, 1), 1);
  });
  auto body = [&]() -> sim::Proc {
    co_await tb.vm.spawn("dst", 1, "host2");
    co_await tb.vm.spawn("src", 1, "host1");
  };
  sim::spawn(tb.eng, body());
  tb.eng.run();
  return delivered - start;
}

double pingpong_rtt(bool direct, int rounds) {
  bench::Testbed tb;
  double rtt_total = -1;
  tb.vm.register_program("pong", [&](pvm::Task& t) -> sim::Co<void> {
    if (direct) t.set_direct_route(true);
    for (int i = 0; i < rounds; ++i) {
      pvm::Message m = co_await t.recv(pvm::kAny, 1);
      t.initsend().pk_int(i);
      co_await t.send(m.src, 2);
    }
  });
  tb.vm.register_program("ping", [&](pvm::Task& t) -> sim::Co<void> {
    if (direct) t.set_direct_route(true);
    const double start = tb.eng.now();
    for (int i = 0; i < rounds; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(pvm::Tid::make(1, 1), 1);
      co_await t.recv(pvm::kAny, 2);
    }
    rtt_total = tb.eng.now() - start;
  });
  auto body = [&]() -> sim::Proc {
    co_await tb.vm.spawn("pong", 1, "host2");
    co_await tb.vm.spawn("ping", 1, "host1");
  };
  sim::spawn(tb.eng, body());
  tb.eng.run();
  return rtt_total / rounds;
}
}  // namespace

int main() {
  bench::print_header(
      "Ablation A7: PVM default route (via pvmds) vs PvmRouteDirect",
      "PVM 3 feature; the daemon route is what the paper's transfers use");

  for (std::size_t kb : {8u, 100u, 1000u}) {
    const double dflt = bulk_transfer(false, kb * 1000);
    const double direct = bulk_transfer(true, kb * 1000);
    std::printf(
        "  bulk %4zu kB:   default %7.4f s   direct %7.4f s   (%.2fx)\n",
        kb, dflt, direct, dflt / direct);
  }
  const double rtt_default = pingpong_rtt(false, 50);
  const double rtt_direct = pingpong_rtt(true, 50);
  std::printf(
      "  4 B round-trip: default %7.4f s   direct %7.4f s   (%.2fx)\n",
      rtt_default, rtt_direct, rtt_default / rtt_direct);
  const bool ok =
      bulk_transfer(true, 1'000'000) < bulk_transfer(false, 1'000'000) &&
      rtt_direct < rtt_default;
  std::printf(
      "\n  Shape check (direct wins on bulk bandwidth and on latency): %s\n",
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
