// Drain-a-host under concurrent migration (DESIGN.md §12).
//
// The owner reclaims a workstation running 32 tasks (2 MB images) and the
// Global Scheduler must evacuate all of them onto 8 idle peers.  Before the
// concurrency work a drain was strictly serial: one migration at a time,
// evacuation time O(n * per-migration cost).  With the admission controller
// the GS runs up to k streams at once — pair-lane conflict detection fans
// them out across destinations — and the wall-clock cost of vacating the
// host drops accordingly.
//
// Two acceptance gates, straight from the issue:
//
//  * evacuation time at k=4 must be at most 0.45x the k=1 (serial) time on
//    the same worknet — concurrency must actually buy wall-clock;
//  * with incremental (pre-copy) transfer on, the median per-task freeze
//    window must be at most 0.25x the full-image stop-and-copy median —
//    the task-visible stall becomes O(dirty residue), not O(image).
//
// One run per k in {1, 2, 4, 8} with stop-and-copy, plus one k=4 run with
// pre-copy enabled for the freeze-window comparison.  Everything lands in
// BENCH_drain.json (evacuation-time-vs-k, freeze-window percentiles, the
// stage table, every gate) and the merged span trace is replayed through
// the TraceAuditor.
//
// On top of the original two gates, the analytics layer (DESIGN.md §14)
// adds three more: the pre-copy freeze-window p99 must shrink alongside
// the median, the per-migration critical-path attribution must cover
// >= 95% of every migration's wall span, and an SLO rule armed on the
// in-flight gauge proves the admission cap held throughout.
#include "bench/bench_util.hpp"

#include <algorithm>
#include <vector>

#include "gs/scheduler.hpp"
#include "mpvm/mpvm.hpp"
#include "obs/analytics.hpp"

namespace {
using namespace cpe;

constexpr int kTasks = 32;
constexpr int kDests = 8;
constexpr std::size_t kImageBytes = 2'000'000;
constexpr double kHorizon = 240.0;

struct RunResult {
  int k = 1;
  bool precopy = false;
  double evacuation = 0;  ///< reclaim order -> last restart_done
  int migrated = 0;
  std::vector<double> freeze;  ///< per-task freeze windows, seconds
  std::size_t precopy_bytes = 0;
  std::size_t residue_bytes = 0;
  std::uint64_t admission_waits = 0;
  std::uint64_t slo_violations = 0;  ///< armed inflight-cap rule; expect 0
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

RunResult run_one(int k, bool precopy, std::vector<obs::SpanRecord>& spans) {
  sim::Engine eng;
  // A modern-ish LAN: at the paper's 10 Mb/s the 64 MB of image bytes alone
  // would dwarf every fixed cost and k would only amortize the wire.
  net::Network net(eng, net::EthernetParams{.bandwidth_bps = 100e6});
  os::Host src(eng, net, os::HostConfig("src", "HPPA", 1.0));
  std::vector<std::unique_ptr<os::Host>> dests;
  dests.reserve(kDests);
  for (int i = 1; i <= kDests; ++i)
    dests.push_back(std::make_unique<os::Host>(
        eng, net, os::HostConfig("d" + std::to_string(i), "HPPA", 1.0)));
  pvm::PvmSystem vm(eng, net);
  vm.add_host(src);
  for (auto& d : dests) vm.add_host(*d);
  mpvm::Mpvm mpvm(vm);
  mpvm::MpvmTuning tun;
  tun.precopy = precopy;
  tun.dirty_rate_bps = 0.1e6 * 8;  // compute-bound tasks re-dirty slowly
  mpvm.set_tuning(tun);

  gs::GsPolicy pol;
  pol.max_concurrent_migrations = k;
  pol.placement = load::PolicyKind::kNone;  // drain only, no rebalancing
  gs::GlobalScheduler gs(vm, pol);
  gs.attach(mpvm);

  // Live rollups over the drain, with the admission cap armed as an SLO:
  // the in-flight gauge must never be seen above k.  A violation here means
  // the admission controller leaked a slot, not that the bench is slow.
  obs::AnalyticsOptions aopt;
  aopt.window = 5.0;
  obs::Analytics an(eng, vm.metrics(), aopt);
  an.track_gauge("mpvm.migrations.inflight");
  an.track_counter("gs.migration.admission_waits");
  an.track_histogram("mpvm.freeze_window");
  an.add_rule("value(mpvm.migrations.inflight) <= " + std::to_string(k));
  an.start(kHorizon);

  vm.register_program("worker", [](pvm::Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = kImageBytes;
    co_await t.compute(10'000.0);  // outlives the bench: pure drain victim
  });

  double vacate_at = 0;
  auto driver = [&eng, &vm, &gs, &src, &vacate_at]() -> sim::Proc {
    co_await vm.spawn("worker", kTasks, "src");
    vacate_at = eng.now();
    os::OwnerEvent ev(eng.now(), src, os::OwnerAction::kReclaim, 1);
    gs.on_owner_event(ev);
  };
  const obs::MetricsSnapshot before = vm.metrics().snapshot();
  sim::spawn(eng, driver());
  gs.start_heartbeat(kHorizon);
  eng.run_until(kHorizon);
  const obs::MetricsSnapshot after = vm.metrics().snapshot();

  RunResult out;
  out.k = k;
  out.precopy = precopy;
  for (const mpvm::MigrationStats& m : mpvm.history()) {
    if (!m.ok || m.from_host != "src") continue;
    ++out.migrated;
    out.evacuation = std::max(out.evacuation, m.restart_done - vacate_at);
    out.freeze.push_back(m.freeze_window());
    out.precopy_bytes += m.precopy_bytes;
    out.residue_bytes += m.residue_bytes;
  }
  // Snapshot diff, not a live counter read: each run owns a fresh registry
  // today, but the diff stays correct if runs ever share one.
  out.admission_waits = after.delta(before, "gs.migration.admission_waits");
  out.slo_violations = an.violations().size();
  bench::collect_spans(vm, spans);
  return out;
}

void print_row(const RunResult& r) {
  std::printf("  %-4d %-10s %-12.2f %-10d %-10.0f %-10.0f %-10.0f %llu\n",
              r.k, r.precopy ? "precopy" : "stop-copy", r.evacuation,
              r.migrated, percentile(r.freeze, 0.5) * 1e3,
              percentile(r.freeze, 0.9) * 1e3,
              r.freeze.empty()
                  ? 0.0
                  : *std::max_element(r.freeze.begin(), r.freeze.end()) * 1e3,
              static_cast<unsigned long long>(r.admission_waits));
}

std::string run_name(const RunResult& r) {
  return "k" + std::to_string(r.k) + (r.precopy ? "_precopy" : "");
}

void report_row(bench::Report& rep, const RunResult& r) {
  rep.row("runs",
          {{"k", r.k},
           {"precopy", r.precopy},
           {"evacuation_s", r.evacuation},
           {"migrated", r.migrated},
           {"freeze_p50_ms", percentile(r.freeze, 0.5) * 1e3},
           {"freeze_p90_ms", percentile(r.freeze, 0.9) * 1e3},
           {"freeze_max_ms",
            r.freeze.empty()
                ? 0.0
                : *std::max_element(r.freeze.begin(), r.freeze.end()) * 1e3},
           {"freeze_p99_ms", percentile(r.freeze, 0.99) * 1e3},
           {"precopy_bytes", r.precopy_bytes},
           {"residue_bytes", r.residue_bytes},
           {"admission_waits", r.admission_waits},
           {"slo_violations", r.slo_violations}});
}
}  // namespace

int main() {
  bench::print_header(
      "Drain a host: 32 tasks x 2 MB evacuated onto 8 peers, k streams",
      "robustness extension — admission-controlled concurrent migration "
      "(scoped flush + residual forwarding) vs the serial drain, and "
      "pre-copy freeze windows vs full-image stop-and-copy (DESIGN.md "
      "§12)");

  std::printf("  %-4s %-10s %-12s %-10s %-10s %-10s %-10s %s\n", "k", "mode",
              "evac(s)", "migrated", "frz p50ms", "frz p90ms", "frz max",
              "waits");
  std::vector<obs::SpanRecord> spans;
  std::vector<RunResult> results;
  for (int k : {1, 2, 4, 8}) {
    results.push_back(run_one(k, /*precopy=*/false, spans));
    print_row(results.back());
  }
  results.push_back(run_one(/*k=*/4, /*precopy=*/true, spans));
  print_row(results.back());

  const RunResult& serial = results[0];
  const RunResult& k4 = results[2];
  const RunResult& pre = results.back();

  bench::Report rep("drain_host", "full");
  rep.row("config", {{"tasks", kTasks},
                     {"dests", kDests},
                     {"image_bytes", kImageBytes}});
  // Gate 1: completeness — every drain moved all 32 tasks off the host.
  for (const RunResult& r : results) {
    report_row(rep, r);
    rep.gate(run_name(r) + ".migrated", r.migrated, "==", kTasks);
  }

  // Gate 2: k=4 evacuates in at most 0.45x the serial wall-clock.
  const double speedup_ratio =
      serial.evacuation > 0 ? k4.evacuation / serial.evacuation : 1.0;
  rep.gate("speedup_ratio", speedup_ratio, "<=", 0.45);

  // Gate 3: pre-copy median freeze at most 0.25x the stop-and-copy median,
  // and the pre-copy run really streamed image bytes before its freezes.
  const double p50_stop = percentile(k4.freeze, 0.5);
  const double p50_pre = percentile(pre.freeze, 0.5);
  const double freeze_ratio = p50_stop > 0 ? p50_pre / p50_stop : 1.0;
  rep.gate("freeze_ratio", freeze_ratio, "<=", 0.25);
  rep.gate(run_name(pre) + ".precopy_bytes", pre.precopy_bytes, ">", 0);

  // Gate 4 (analytics): the TAIL must shrink too, not just the median — a
  // pre-copy that stalls one unlucky task for a full image copy would pass
  // the p50 gate and fail this one.  p99 is read from the sorted samples
  // like p50; with 32 samples per run it is the run's largest freeze.
  // 0.50 leaves ~2x headroom over the measured ratio.
  const double p99_stop = percentile(k4.freeze, 0.99);
  const double p99_pre = percentile(pre.freeze, 0.99);
  const double freeze_p99_ratio = p99_stop > 0 ? p99_pre / p99_stop : 1.0;
  rep.gate("freeze_p99_ratio", freeze_p99_ratio, "<=", 0.50);

  // Gate 5 (analytics): the armed inflight-cap SLO never fired.
  std::uint64_t slo_violations = 0;
  for (const RunResult& r : results) slo_violations += r.slo_violations;
  rep.gate("slo_violations", slo_violations, "==", 0);

  std::printf(
      "\n  Shape check (all drains complete; evac k=4/k=1 = %.3f <= 0.45; "
      "precopy/stop-copy median freeze = %.3f <= 0.25; p99 freeze = %.3f "
      "<= 0.50; inflight-cap SLO violations = %llu): %s\n",
      speedup_ratio, freeze_ratio, freeze_p99_ratio,
      static_cast<unsigned long long>(slo_violations),
      rep.pass() ? "PASS" : "FAIL");

  // Critical-path attribution over every migration in all five runs; the
  // coverage gate fails the bench if the stage spans ever stop accounting
  // for >= 95% of each migration's wall span.
  bench::report_analytics(rep, spans);
  bench::write_trace_json(spans, "BENCH_drain_trace.json");
  rep.gate("trace_audit_clean", bench::audit_spans(spans), "==", true);
  rep.write("BENCH_drain.json");
  return rep.pass() ? 0 : 1;
}
