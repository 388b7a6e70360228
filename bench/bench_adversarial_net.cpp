// Adversarial-network goodput (DESIGN.md §7).
//
// The exactly-once hardening is not free: CRC-checked frames that arrive
// flipped are dropped and retransmitted, and duplicated frames burn wire
// time the application never sees.  This bench prices that tax.  Four
// sender/receiver pairs stream fixed-size messages across the paper's
// 10 Mb/s Ethernet, once on a clean fabric and once per adversarial
// profile; goodput is application payload bytes over the stream's virtual
// wall-clock, so retransmission and duplication overhead land squarely in
// the denominator.
//
// Acceptance gate, straight from the issue: under 1% payload corruption
// *plus* duplication the delivered goodput must stay at or above 0.6x the
// clean-fabric goodput — the defenses degrade throughput gracefully, they
// do not collapse it.  Every run must also deliver every message exactly
// once, in order, unscathed: a lost or garbled stream is a hard failure no
// matter how fast it went.
//
// Results land in BENCH_adversarial.json: one row per scenario with the
// per-axis injection counters, and every gate.
#include "bench/bench_util.hpp"

#include <string>
#include <vector>

namespace {
using namespace cpe;

constexpr int kPairs = 4;
constexpr int kMsgs = 80;          // messages per pair
constexpr int kDoubles = 1'250;    // 10 kB of payload per message
constexpr double kStart = 2.0;     // senders hold until everyone enrolled
constexpr double kHorizon = 600.0;
constexpr std::uint64_t kSeed = 4242;

struct RunResult {
  std::string scenario;
  double goodput_bps = 0;   ///< app payload bits / stream virtual seconds
  double elapsed_s = 0;     ///< first send -> last delivery
  int delivered = 0;        ///< messages that reached an application recv
  int garbled = 0;          ///< payloads that failed the app-level pattern
  std::uint64_t duplicates_injected = 0;
  std::uint64_t reorders_injected = 0;
  std::uint64_t corrupt_injected = 0;
  std::uint64_t corrupt_dropped = 0;
  std::uint64_t retransmits = 0;
};

RunResult run_one(const std::string& scenario, net::AdversaryParams adv) {
  sim::Engine eng;
  net::Network net(eng, net::EthernetParams{}, net::DatagramParams{}, kSeed);
  os::Host host1(eng, net, os::HostConfig("host1", "HPPA", 1.0));
  os::Host host2(eng, net, os::HostConfig("host2", "HPPA", 1.0));
  pvm::PvmSystem vm(eng, net);
  vm.add_host(host1);
  vm.add_host(host2);

  RunResult out;
  out.scenario = scenario;
  double last_delivery = kStart;
  // Receivers live on host2, senders on host1: every message crosses the
  // (hostile) wire.  Payloads carry a per-message pattern so a corrupt
  // frame that slipped past the CRC would be caught here.
  vm.register_program("rx", [&](pvm::Task& t) -> sim::Co<void> {
    for (int i = 0; i < kMsgs; ++i) {
      co_await t.recv(pvm::kAny, 9);
      std::vector<double> v(kDoubles);
      t.rbuf().upk_double(v);
      ++out.delivered;
      for (double x : v)
        if (x != static_cast<double>(i)) {
          ++out.garbled;
          break;
        }
      last_delivery = eng.now();
    }
  });
  vm.register_program("tx", [&](pvm::Task& t) -> sim::Co<void> {
    const std::uint32_t inst = t.tid().task_num();
    const pvm::Tid peer = pvm::Tid::make(1, inst);  // rx spawned first
    co_await sim::Delay(eng, kStart - eng.now());
    for (int i = 0; i < kMsgs; ++i) {
      t.initsend().pk_double(
          std::vector<double>(kDoubles, static_cast<double>(i)));
      co_await t.send(peer, 9);
    }
  });
  // Arm after the spawn RPCs are done but before the first payload frame.
  eng.schedule_at(kStart - 0.1, [&net, adv] { net.set_adversary(adv); });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("rx", kPairs, "host2");
    co_await vm.spawn("tx", kPairs, "host1");
  };
  sim::spawn(eng, driver());
  eng.run_until(kHorizon);

  out.elapsed_s = last_delivery - kStart;
  const double payload_bits =
      static_cast<double>(out.delivered) * kDoubles * sizeof(double) * 8;
  out.goodput_bps = out.elapsed_s > 0 ? payload_bits / out.elapsed_s : 0;
  const net::DatagramService& dg = net.datagrams();
  out.duplicates_injected = dg.duplicates_injected();
  out.reorders_injected = dg.reorders_injected();
  out.corrupt_injected = dg.corrupt_injected();
  out.corrupt_dropped = dg.corrupt_dropped();
  out.retransmits = dg.fragments_retransmitted();
  return out;
}

void print_row(const RunResult& r) {
  std::printf("  %-18s %-12.3f %-10.2f %-6d %-8d %-8llu %-8llu %llu\n",
              r.scenario.c_str(), r.goodput_bps / 1e6, r.elapsed_s,
              r.delivered, r.garbled,
              static_cast<unsigned long long>(r.duplicates_injected),
              static_cast<unsigned long long>(r.corrupt_injected),
              static_cast<unsigned long long>(r.retransmits));
}

void report_row(bench::Report& rep, const RunResult& r) {
  rep.row("runs", {{"scenario", r.scenario},
                   {"goodput_bps", r.goodput_bps},
                   {"elapsed_s", r.elapsed_s},
                   {"messages", r.delivered},
                   {"garbled", r.garbled},
                   {"duplicates_injected", r.duplicates_injected},
                   {"reorders_injected", r.reorders_injected},
                   {"corrupt_injected", r.corrupt_injected},
                   {"corrupt_dropped", r.corrupt_dropped},
                   {"retransmits", r.retransmits}});
}
}  // namespace

int main() {
  bench::print_header(
      "Adversarial-network goodput: streams under duplication + corruption",
      "robustness extension — the end-to-end exactly-once defenses "
      "(CRC-32 frames, per-sender sequence windows, DESIGN.md §7) priced "
      "against a clean fabric");

  std::printf("  %-18s %-12s %-10s %-6s %-8s %-8s %-8s %s\n", "scenario",
              "goodput Mb/s", "elapsed", "msgs", "garbled", "dups",
              "corrupt", "retx");
  std::vector<RunResult> results;
  results.push_back(run_one("clean", {}));
  print_row(results.back());
  results.push_back(run_one("corrupt1pct", {.corrupt_probability = 0.01}));
  print_row(results.back());
  results.push_back(run_one("duplicate", {.duplicate_probability = 0.1}));
  print_row(results.back());
  results.push_back(run_one("corrupt+duplicate",
                            {.duplicate_probability = 0.1,
                             .corrupt_probability = 0.01}));
  print_row(results.back());

  const RunResult& clean = results.front();
  const RunResult& worst = results.back();

  bench::Report rep("adversarial_net", "full");
  rep.row("config", {{"seed", kSeed},
                     {"horizon", kHorizon},
                     {"pairs", kPairs},
                     {"messages_per_pair", kMsgs},
                     {"payload_bytes", kDoubles * sizeof(double)}});
  // Gate 1: correctness before speed — every scenario delivered every
  // message exactly once, nothing garbled reached an application, and every
  // stream made progress.
  for (const RunResult& r : results) {
    report_row(rep, r);
    rep.gate(r.scenario + ".messages", r.delivered, "==", kPairs * kMsgs);
    rep.gate(r.scenario + ".garbled", r.garbled, "==", 0);
    rep.gate(r.scenario + ".goodput_bps", r.goodput_bps, ">", 0);
  }

  // Gate 2: the adversary really fired in the adversarial runs, and only
  // there.
  const RunResult& corrupt = results[1];
  const RunResult& duplicate = results[2];
  rep.gate(clean.scenario + ".corrupt_injected", clean.corrupt_injected, "==",
           0);
  rep.gate(clean.scenario + ".duplicates_injected", clean.duplicates_injected,
           "==", 0);
  rep.gate(corrupt.scenario + ".corrupt_injected", corrupt.corrupt_injected,
           ">", 0);
  rep.gate(duplicate.scenario + ".duplicates_injected",
           duplicate.duplicates_injected, ">", 0);
  rep.gate(worst.scenario + ".corrupt_injected", worst.corrupt_injected, ">",
           0);
  rep.gate(worst.scenario + ".duplicates_injected", worst.duplicates_injected,
           ">", 0);
  rep.gate(worst.scenario + ".corrupt_dropped", worst.corrupt_dropped, ">", 0);

  // Gate 3: graceful degradation — 1% corruption + duplication keeps at
  // least 0.6x of the clean goodput.
  const double ratio =
      clean.goodput_bps > 0 ? worst.goodput_bps / clean.goodput_bps : 0;
  constexpr double kLimit = 0.6;
  rep.gate("goodput_ratio", ratio, ">=", kLimit);

  std::printf(
      "\n  Shape check (all streams exactly-once and unscathed; injectors "
      "fired; goodput corrupt+dup/clean = %.3f >= %.2f): %s\n",
      ratio, kLimit, rep.pass() ? "PASS" : "FAIL");
  rep.write("BENCH_adversarial.json");
  return rep.pass() ? 0 : 1;
}
