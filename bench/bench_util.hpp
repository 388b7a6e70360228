// Shared scaffolding for the table/figure reproduction benches.
//
// Every bench builds the paper's testbed — two HP 9000/720-class
// workstations on a 10 Mb/s Ethernet — runs the experiment in virtual time,
// and prints the paper's reported numbers next to the measured ones.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/opt/adm_opt.hpp"
#include "apps/opt/opt_app.hpp"
#include "apps/opt/spmd_opt.hpp"
#include "gs/scheduler.hpp"
#include "mpvm/mpvm.hpp"
#include "net/tcp.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace cpe::bench {

/// The paper's testbed: "a quiet system of two HP series 9000/720
/// workstations connected by a 10Mb/sec Ethernet" (§4.0).
struct Testbed {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};

  Testbed() {
    vm.add_host(host1);
    vm.add_host(host2);
  }
};

/// The paper's PVM_opt configuration at a given training-set size: one
/// master + 2 slaves, master co-located with slave 1 (§4.0).
inline opt::OptConfig paper_opt_config(double data_mb) {
  opt::OptConfig cfg;
  cfg.data_bytes = static_cast<std::size_t>(data_mb * 1e6);
  cfg.nslaves = 2;
  const calib::OptWorkload w{};
  cfg.iterations =
      data_mb > 2.0 ? w.iterations_large : w.iterations_small;
  cfg.real_math = false;  // bench scale: modelled gradients, real messages
  cfg.master_host = "host1";
  cfg.slave_hosts = {"host1", "host2"};
  return cfg;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Paper reference: %s\n\n", paper.c_str());
}

inline void print_row_check(const char* name, double paper, double measured) {
  const double dev = paper != 0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-34s paper %8.2f s   measured %8.2f s   (%+5.1f%%)\n",
              name, paper, measured, dev);
}

/// Append one metrics snapshot from `vm` to an already-open JSONL stream.
/// Benches that rebuild the testbed per row (fresh registry each time) call
/// this once per row; the file accumulates one snapshot per configuration.
inline void append_metrics_jsonl(pvm::PvmSystem& vm, std::ostream& os) {
  vm.metrics().write_jsonl(os);
}

/// Write the VM's full metrics state to `path` (truncating).  Every table
/// bench leaves a machine-readable BENCH_metrics.json companion this way —
/// the bench trajectory CI smoke (ci/check.sh bench) regresses against it.
inline void write_metrics_json(pvm::PvmSystem& vm, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  vm.metrics().write_jsonl(f);
  std::printf("  metrics: wrote %s\n", path.c_str());
}

/// Drain the VM's span tracer into `out`, re-basing span and trace ids past
/// anything already collected.  Benches that rebuild the testbed per row get
/// a fresh tracer (ids restart at 1) each time; naive concatenation would
/// collide ids and corrupt the auditor's parent index.
inline void collect_spans(pvm::PvmSystem& vm,
                          std::vector<obs::SpanRecord>& out) {
  obs::SpanId span_base = 0;
  obs::TraceId trace_base = 0;
  for (const auto& s : out) {
    span_base = std::max(span_base, s.span_id);
    trace_base = std::max(trace_base, s.trace_id);
  }
  for (const obs::SpanRecord& s : vm.spans().spans()) {
    obs::SpanRecord r = s;
    r.span_id += span_base;
    if (r.parent_span != 0) r.parent_span += span_base;
    r.trace_id += trace_base;
    out.push_back(std::move(r));
  }
}

/// Write collected spans to `path` as Chrome trace-event JSON (Perfetto /
/// chrome://tracing loadable).  Every table/fault/failover bench leaves a
/// BENCH_trace.json companion this way; ci/check.sh bench validates it.
inline void write_trace_json(const std::vector<obs::SpanRecord>& spans,
                             const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  obs::write_chrome_trace(spans, f);
  std::printf("  trace: wrote %s (%zu spans)\n", path.c_str(), spans.size());
}

/// Print every span whose name starts with `prefix`, in record order, one
/// per line: "t=<start>..<end> <name> <status> k=v ...".  Figures 1, 3 and
/// 4 print their protocol's spans this way.
inline void print_spans(const obs::SpanTracer& spans, std::string_view prefix) {
  for (const obs::SpanRecord& s : spans.spans()) {
    if (s.name.rfind(prefix, 0) != 0) continue;
    std::printf("    t=%.6f..%.6f %s %s", s.start, s.end, s.name.c_str(),
                obs::to_string(s.status));
    for (const auto& [k, v] : s.attrs)
      std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
  }
}

/// Figures 1 and 3: true when the first span called `name` closed Ok at
/// `at`, the engine instant the protocol also stamped into its stats.
/// Prints what it found otherwise.
inline bool span_closed_at(const obs::SpanTracer& spans, std::string_view name,
                           sim::Time at) {
  const obs::SpanRecord* s = spans.find_named(name);
  if (s != nullptr && s->status == obs::SpanStatus::kOk && s->end == at)
    return true;
  if (s == nullptr)
    std::printf("  check: no %s span\n", std::string(name).c_str());
  else
    std::printf("  check: %s closed %s at t=%.9f, stats say t=%.9f\n",
                s->name.c_str(), obs::to_string(s->status), s->end, at);
  return false;
}

/// Run the trace auditor over collected spans; print any violations and
/// return true when the trace is clean.  Benches exit nonzero on failure so
/// the CI bench/audit modes catch protocol regressions.
inline bool audit_spans(const std::vector<obs::SpanRecord>& spans) {
  obs::TraceAuditor auditor(spans);
  const auto violations = auditor.audit();
  if (violations.empty()) {
    std::printf("  audit: %zu spans, all invariants hold\n", spans.size());
    return true;
  }
  std::printf("  audit: %zu violation(s):\n%s", violations.size(),
              obs::TraceAuditor::format(violations).c_str());
  return false;
}

}  // namespace cpe::bench
