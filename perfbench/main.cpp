// The repository benchmark program.
//
//   perfbench --workload <fleet_churn|svc_storm|paper_reclaim> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run executes a fixed number of repetitions, each on its own sub-seed
// derived from --seed; their virtual-time outcomes are pooled.  Untraced,
// it then repeats those repetitions (cycling the sub-seeds) until --seconds
// have passed, checking that each repeat reproduces its digest, and reports
// host times as medians over every repetition.  Traced, each repetition
// runs once with host-time spans and probes and once without, and the run
// reports the per-layer metrics plus the tracing overhead.  The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics.  Output checks that fail make the run exit 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Percentile;
using perfbench::RepConfig;
using perfbench::RepOut;

struct Workload {
  const char* name;
  int reps;  ///< fixed repetitions whose outcomes are pooled
  std::function<RepOut(const RepConfig&)> run;
};

const Workload kWorkloads[] = {
    {"fleet_churn", 2,
     [](const RepConfig& c) { return perfbench::run_fleet_churn(c); }},
    {"svc_storm", 5,
     [](const RepConfig& c) { return perfbench::run_svc_storm(c); }},
    {"paper_reclaim", 4,
     [](const RepConfig& c) { return perfbench::run_paper_reclaim(c); }},
};

/// One repetition; an exception out of the simulator becomes a failed
/// check instead of ending the run without a result.
RepOut run_rep(const Workload& w, const RepConfig& c) {
  try {
    return w.run(c);
  } catch (const std::exception& e) {
    RepOut out;
    out.failures.push_back(std::string(w.name) + ": repetition threw: " +
                           e.what());
    return out;
  }
}

std::uint64_t sub_seed(std::uint64_t seed, int i) {
  std::uint64_t z = seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(i) + 1;
  z = (z ^ (z >> 31)) * 0x9e3779b97f4a7c15ULL;
  return z ^ (z >> 29);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;  ///< human-readable basis, printed before the JSON
};

/// The repetitions of one run, pooled.
struct Pool {
  std::vector<RepOut> reps;

  [[nodiscard]] double sum(const std::string& k) const {
    double s = 0;
    for (const RepOut& r : reps) {
      const auto it = r.sum.find(k);
      if (it != r.sum.end()) s += it->second;
    }
    return s;
  }
  [[nodiscard]] double peak(const std::string& k) const {
    double p = 0;
    for (const RepOut& r : reps) {
      const auto it = r.peak.find(k);
      if (it != r.peak.end() && it->second > p) p = it->second;
    }
    return p;
  }
  template <class F>
  [[nodiscard]] double total(F f) const {
    double s = 0;
    for (const RepOut& r : reps) s += static_cast<double>(f(r));
    return s;
  }
  template <class F>
  [[nodiscard]] std::vector<double> concat(F f) const {
    std::vector<double> v;
    for (const RepOut& r : reps) {
      const std::vector<double>& x = f(r);
      v.insert(v.end(), x.begin(), x.end());
    }
    return v;
  }
};

std::string pct_note(const Percentile& p, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "nearest rank over %zu %s, %zu censored",
                p.n, what, p.censored);
  return buf;
}

std::vector<Metric> end_to_end(const Pool& pool,
                               const std::vector<double>& walls,
                               const std::vector<double>& setups,
                               double peak_rss_mb) {
  std::vector<Metric> m;
  const std::string reps = std::to_string(walls.size()) + " repetitions";
  m.push_back({"wall_s", "s", median(walls), "median of " + reps});
  m.push_back({"setup_s", "s", median(setups), "median of " + reps});
  m.push_back({"peak_rss_mb", "MiB", peak_rss_mb,
               "getrusage maxrss after the pooled repetitions"});

  const double attempted = pool.total([](const RepOut& r) { return r.attempted; });
  const double completed = pool.total([](const RepOut& r) { return r.completed; });
  const double within = pool.total([](const RepOut& r) { return r.within_limit; });
  m.push_back({"ok_frac", "ratio", ratio(completed, attempted),
               std::to_string(static_cast<long long>(completed)) + " of " +
                   std::to_string(static_cast<long long>(attempted)) +
                   " operations completed"});
  m.push_back({"load_cv", "ratio",
               ratio(pool.total([](const RepOut& r) { return r.cv_sum; }),
                     pool.total([](const RepOut& r) { return r.cv_n; })),
               "mean CV over " +
                   std::to_string(static_cast<long long>(pool.total(
                       [](const RepOut& r) { return r.cv_n; }))) +
                   " one-second samples"});

  const std::vector<double> freeze =
      pool.concat([](const RepOut& r) -> const std::vector<double>& {
        return r.freeze;
      });
  for (const auto& [name, q] :
       {std::pair<const char*, double>{"freeze_p50_s", 0.50},
        std::pair<const char*, double>{"freeze_p95_s", 0.95}}) {
    const Percentile p = perfbench::nearest_rank(freeze, 0, 0, q);
    m.push_back({name, "s", p.value, pct_note(p, "migrations")});
  }

  const std::vector<double> lat =
      pool.concat([](const RepOut& r) -> const std::vector<double>& {
        return r.op_latency;
      });
  const auto censored = static_cast<std::size_t>(
      pool.total([](const RepOut& r) { return r.op_censored; }));
  const double bound = pool.reps.empty() ? 0 : pool.reps.front().op_bound;
  for (const auto& [name, q] :
       {std::pair<const char*, double>{"op_p50_s", 0.50},
        std::pair<const char*, double>{"op_p99_s", 0.99}}) {
    const Percentile p = perfbench::nearest_rank(lat, censored, bound, q);
    m.push_back({name, "s", p.value, pct_note(p, "operations")});
  }
  m.push_back({"op_slo_frac", "ratio", ratio(within, attempted),
               std::to_string(static_cast<long long>(within)) + " of " +
                   std::to_string(static_cast<long long>(attempted)) +
                   " operations within the workload's latency limit"});
  return m;
}

std::vector<Metric> per_layer(const Pool& pool,
                              const std::vector<double>& traced_walls,
                              const std::vector<double>& untraced_walls) {
  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, const char* unit, double v) {
    m.push_back({name, unit, v, ""});
  };
  const double nreps = static_cast<double>(pool.reps.size());
  const auto mean_per_rep = [&](const std::string& k) {
    return ratio(pool.sum(k), nreps);
  };
  // The untraced passes fire the same events without the probes.
  double plain_wall = 0;
  for (double w : untraced_walls) plain_wall += w;

  add("sim.events", "count", pool.sum("sim.events"));
  add("sim.ns_per_event", "ns", 1e9 * ratio(plain_wall, pool.sum("sim.events")));
  add("sim.slice_max_s", "s", pool.peak("sim.slice_max_s"));
  add("sim.pending_peak", "count", pool.peak("sim.pending_peak"));

  add("os.load_mean", "jobs",
      ratio(pool.total([](const RepOut& r) { return r.load_sum; }),
            pool.total([](const RepOut& r) { return r.load_n; })));

  add("net.ether.frames", "count", pool.sum("net.ether.frames"));
  add("net.ether.payload_bytes", "bytes", pool.sum("net.ether.payload_bytes"));
  add("net.datagrams.sent", "count", pool.sum("net.datagrams.sent"));
  add("net.datagram.bytes_sent", "bytes", pool.sum("net.datagram.bytes_sent"));
  add("net.datagram.drops_total", "count", pool.sum("net.datagram.drops_total"));
  add("net.fragments.retransmitted", "count",
      pool.sum("net.fragments.retransmitted"));

  add("pvm.messages_routed", "count", pool.sum("pvm.messages_routed"));
  add("pvm.bytes_routed", "bytes", pool.sum("pvm.bytes_routed"));
  add("pvm.seq.anomalies", "count",
      pool.sum("pvm.seq.duplicates_dropped") +
          pool.sum("pvm.seq.reordered_held") + pool.sum("pvm.seq.gaps_skipped"));
  add("pvm.crc.dropped", "count", pool.sum("pvm.crc.dropped"));

  add("mpvm.migrations.completed", "count",
      pool.sum("mpvm.migrations.completed"));
  add("mpvm.migrations.failed", "count", pool.sum("mpvm.migrations.failed"));
  for (const char* k :
       {"mpvm.freeze_s", "mpvm.flush_s", "mpvm.transfer_s", "mpvm.restart_s"})
    add(k, "s", pool.sum(k));
  add("mpvm.residue_ratio", "ratio",
      ratio(pool.sum("mpvm.residue_bytes"), pool.sum("mpvm.state_bytes")));
  for (const char* k : {"mpvm.flush.retries", "mpvm.flush.acks_substituted",
                        "mpvm.residual.forwarded"})
    add(k, "count", pool.sum(k));

  add("upvm.migrations.completed", "count",
      pool.sum("upvm.migrations.completed"));
  add("upvm.migrations.aborted", "count", pool.sum("upvm.migrations.aborted"));
  for (const char* k :
       {"upvm.capture_s", "upvm.flush_s", "upvm.offload_s", "upvm.accept_s"})
    add(k, "s", pool.sum(k));

  for (const char* k :
       {"adm.repartitions", "adm.consensus.rounds", "adm.events.posted"})
    add(k, "count", pool.sum(k));
  add("adm.redist_s", "s", pool.sum("adm.redist_s"));

  add("load.gossip.rounds", "count", pool.sum("load.gossip.rounds"));
  add("load.gossip.sent", "count", pool.sum("load.gossip.sent"));
  add("load.gossip.merged", "count", pool.sum("load.entries_merged"));
  add("load.stale_dropped", "count", pool.sum("load.stale_dropped"));
  add("load.merge_ratio", "ratio",
      ratio(pool.sum("load.entries_merged"), pool.sum("load.gossip.sent")));
  add("load.view_us", "us",
      1e6 * ratio(pool.sum("load.view_s"), pool.sum("load.view_calls")));
  add("load.gossip_probe_s", "s", mean_per_rep("load.gossip_probe_s"));

  add("gs.decisions", "count", pool.sum("gs.decisions"));
  for (const char* k :
       {"gs.migration.attempts", "gs.migration.retries",
        "gs.migration.admission_refused", "gs.migration.admission_waits",
        "gs.admission.refusals", "gs.residency_rejections",
        "gs.thrash_violations"})
    add(k, "count", pool.sum(k));
  add("gs.useful_ratio", "ratio",
      ratio(pool.sum("gs.migrations.completed"), pool.sum("gs.actions")));
  add("gs.decide_us", "us",
      1e6 * ratio(pool.sum("gs.decide_s"), pool.sum("gs.decide_calls")));

  for (const char* k : {"svc.issued", "svc.completed", "svc.timeouts",
                        "svc.rejected", "svc.late"})
    add(k, "count", pool.sum(k));
  const std::vector<double> qw =
      pool.concat([](const RepOut& r) -> const std::vector<double>& {
        return r.queue_wait;
      });
  const std::vector<double> stall =
      pool.concat([](const RepOut& r) -> const std::vector<double>& {
        return r.stall;
      });
  add("svc.queue_wait_p50_s", "s", perfbench::nearest_rank(qw, 0, 0, 0.50).value);
  add("svc.queue_wait_p99_s", "s", perfbench::nearest_rank(qw, 0, 0, 0.99).value);
  add("svc.stall_p99_s", "s", perfbench::nearest_rank(stall, 0, 0, 0.99).value);
  add("svc.pressure_calls", "count", pool.sum("svc.pressure_calls"));
  add("svc.pressure_us", "us",
      1e6 * ratio(pool.sum("svc.pressure_s"), pool.sum("svc.pressure_calls")));

  add("obs.spans", "count", pool.sum("obs.spans"));
  add("obs.spans_dropped", "count", pool.sum("obs.spans_dropped"));
  add("obs.snapshot_us", "us",
      1e6 * ratio(pool.sum("obs.snapshot_s"), pool.sum("obs.snapshot_calls")));
  add("obs.audit_s", "s", mean_per_rep("obs.audit_s"));
  add("obs.trace_export_s", "s", mean_per_rep("obs.trace_export_s"));

  add("fault.injected", "count", pool.sum("fault.injected"));

  std::vector<double> mk[3];
  std::vector<double> err;
  const std::vector<double> ref = perfbench::paper_reference();
  for (const RepOut& r : pool.reps) {
    for (std::size_t i = 0; i < r.makespan.size() && i < 3; ++i)
      mk[i].push_back(r.makespan[i]);
    if (!r.paper.empty()) err.push_back(perfbench::paper_err_pct(r.paper, ref));
  }
  add("opt.makespan_mpvm_s", "s", median(mk[0]));
  add("opt.makespan_upvm_s", "s", median(mk[1]));
  add("opt.makespan_adm_s", "s", median(mk[2]));
  double err_sum = 0;
  for (double e : err) err_sum += e;
  add("opt.paper_err_pct", "%", ratio(err_sum, static_cast<double>(err.size())));

  for (const char* layer : {"sim", "net", "os", "pvm", "mpvm", "upvm", "adm",
                            "opt", "gs", "load", "svc", "obs", "fault",
                            "spawn"})
    add(std::string("setup.") + layer + "_s", "s",
        mean_per_rep(std::string("setup.") + layer + "_s"));

  add("trace_overhead_frac", "ratio",
      ratio(median(traced_walls), median(untraced_walls)) - 1.0);
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& x : metrics)
    std::printf("  %-32s %.6g %s%s%s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.note.empty() ? "" : "  (",
                x.note.empty() ? "" : (x.note + ")").c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_churn|svc_storm|"
               "paper_reclaim> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::strcmp(v, "1") == 0;
    else if (k == "--trace-out") trace_out = v;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads)
    if (workload == x.name) w = &x;
  if (w == nullptr || argc % 2 != 1) return usage();
  const int reps = w->reps;

  std::printf("perfbench %s seed=%llu reps=%d trace=%d\n", w->name,
              static_cast<unsigned long long>(seed), reps, trace ? 1 : 0);
  Pool pool;
  std::vector<double> walls, setups, traced_walls;
  std::vector<std::string> problems;
  const double t_start = perfbench::host_now();
  perfbench::HostTrace tr(trace);

  const auto check_repeat = [&](const RepOut& again, int i) {
    if (again.digest != pool.reps[static_cast<std::size_t>(i)].digest)
      problems.push_back("repetition " + std::to_string(i) +
                         " did not reproduce its digest");
  };
  for (int i = 0; i < reps; ++i) {
    RepConfig c;
    c.seed = sub_seed(seed, i);
    if (!trace) {
      pool.reps.push_back(run_rep(*w, c));
      walls.push_back(pool.reps.back().wall_s);
      setups.push_back(pool.reps.back().setup_s);
      continue;
    }
    // Traced and untraced passes of one sub-seed, alternating which goes
    // first; both must produce the same virtual-time outcomes.
    RepConfig ct = c;
    ct.trace = &tr;
    RepOut plain;
    if (i % 2 == 0) {
      pool.reps.push_back(run_rep(*w, ct));
      plain = run_rep(*w, c);
    } else {
      plain = run_rep(*w, c);
      pool.reps.push_back(run_rep(*w, ct));
    }
    traced_walls.push_back(pool.reps.back().wall_s);
    walls.push_back(plain.wall_s);
    setups.push_back(plain.setup_s);
    check_repeat(plain, i);
    for (const std::string& f : plain.failures) problems.push_back(f);
  }
  // The high-water mark of the pooled repetitions, before the timed
  // repeats whose count depends on host speed.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  // Timed repeats while another one still fits in --seconds.
  double last = (perfbench::host_now() - t_start) / reps;
  for (int k = 0; !trace && perfbench::host_now() - t_start + last <= seconds;
       ++k) {
    RepConfig c;
    c.seed = sub_seed(seed, k % reps);
    const double t0 = perfbench::host_now();
    const RepOut again = run_rep(*w, c);
    last = perfbench::host_now() - t0;
    walls.push_back(again.wall_s);
    setups.push_back(again.setup_s);
    check_repeat(again, k % reps);
    for (const std::string& f : again.failures) problems.push_back(f);
  }

  perfbench::Digest run_digest;
  for (const RepOut& r : pool.reps) {
    run_digest.u64(r.digest);
    for (const std::string& f : r.failures) problems.push_back(f);
  }
  std::printf("  digest %016llx over %zu repetitions\n",
              static_cast<unsigned long long>(run_digest.value()),
              pool.reps.size());
  for (const std::string& p : problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  std::printf("  checks: %s\n", problems.empty() ? "PASS" : "FAIL");

  if (trace && !trace_out.empty()) {
    std::ofstream f(trace_out, std::ios::trunc);
    tr.write_jsonl(f);
    std::printf("  trace: %zu host spans written to %s\n", tr.size(),
                trace_out.c_str());
  }

  const auto attempted = static_cast<std::uint64_t>(
      pool.total([](const RepOut& r) { return r.attempted; }));
  const auto completed = static_cast<std::uint64_t>(
      pool.total([](const RepOut& r) { return r.completed; }));
  const std::vector<Metric> metrics =
      trace ? per_layer(pool, traced_walls, walls)
            : end_to_end(pool, walls, setups, peak_rss_mb);
  print_result(problems.empty(), attempted, attempted - completed, metrics);
  return problems.empty() ? 0 : 1;
}
