// Table 2 — MPVM obtrusiveness and migration cost vs. data size, with the
// raw-TCP lower bound (§4.1.2, §4.1.3).
//
// For each training-set size, PVM_opt runs with a slave on each host
// ("slaves in the experiments get half of the indicated data size"); once
// the slaves hold their data, the global scheduler migrates the host1 slave
// to host2.  The raw-TCP column pushes the same number of bytes through a
// bare stream connection — the lower bound on any migration mechanism.
//
// Every row's metrics snapshot must carry all four mpvm.stage.* histograms,
// and the six migrations also feed the critical-path analytics: per-stage
// p50/p95/p99 and which stage dominated each migration, gated on >= 95%
// wall-span coverage.  Rows, stage table and gates land in
// BENCH_table2.json.
#include "bench/bench_util.hpp"

namespace {

using namespace cpe;

struct Row {
  double data_mb;
  double paper_raw_tcp;
  double paper_obtrusiveness;
  double paper_ratio;
  double paper_migration;
};

constexpr Row kPaper[] = {
    {0.6, 0.27, 1.17, 4.3, 1.39},  {4.2, 1.82, 2.93, 1.56, 3.15},
    {5.8, 2.51, 3.90, 1.55, 4.10}, {9.8, 4.42, 5.92, 1.34, 6.18},
    {13.5, 6.17, 8.42, 1.36, 9.25}, {20.8, 10.00, 12.52, 1.25, 13.10},
};

double raw_tcp_seconds(std::size_t bytes) {
  sim::Engine eng;
  net::Network net(eng);
  const net::NodeId a = net.add_node("host1");
  const net::NodeId b = net.add_node("host2");
  double done = -1;
  auto body = [&]() -> sim::Proc {
    auto s = co_await net::TcpStream::connect(net, a, b);
    co_await s->send(a, bytes);
    done = eng.now();
  };
  sim::spawn(eng, body());
  eng.run();
  return done;
}

constexpr const char* kStages[] = {"freeze", "flush", "transfer", "restart"};

/// Fewest samples any row recorded into each mpvm.stage.* histogram.
struct StageCounts {
  std::uint64_t min[std::size(kStages)] = {UINT64_MAX, UINT64_MAX, UINT64_MAX,
                                           UINT64_MAX};

  void add_row(const obs::MetricsRegistry& reg) {
    for (std::size_t i = 0; i < std::size(kStages); ++i) {
      const obs::Histogram* h =
          reg.find_histogram(std::string("mpvm.stage.") + kStages[i]);
      min[i] = std::min(min[i], h != nullptr ? h->count() : 0);
    }
  }
};

mpvm::MigrationStats migrate_once(double data_mb, std::ostream& metrics_out,
                                  std::vector<obs::SpanRecord>& spans,
                                  StageCounts& stage_counts) {
  bench::Testbed tb;
  mpvm::Mpvm mpvm(tb.vm);
  opt::PvmOpt app(tb.vm, bench::paper_opt_config(data_mb));
  auto driver = [&]() -> sim::Proc { (void)co_await app.run(); };
  sim::spawn(tb.eng, driver());

  mpvm::MigrationStats stats;
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(tb.eng, 1.0);  // mid-computation
    stats = co_await mpvm.migrate(app.slave_tid(0), tb.host2);
  };
  sim::spawn(tb.eng, gs());
  tb.eng.run();
  // Each row has its own testbed, so the file accumulates one snapshot per
  // row — every snapshot carries that row's mpvm.stage.* histograms.
  bench::append_metrics_jsonl(tb.vm, metrics_out);
  stage_counts.add_row(tb.vm.metrics());
  bench::collect_spans(tb.vm, spans);
  return stats;
}

}  // namespace

int main() {
  bench::print_header(
      "Table 2: MPVM obtrusiveness and migration cost vs data size",
      "raw TCP 0.27..10.0 s; obtrusiveness 1.17..12.52 s (ratio 4.3 -> "
      "1.25); migration 1.39..13.10 s");

  std::printf(
      "  %-6s | %-17s | %-17s | %-13s | %-17s\n"
      "  %-6s | %8s %8s | %8s %8s | %6s %6s | %8s %8s\n",
      "size", "raw TCP (s)", "obtrusiveness(s)", "ratio", "migration (s)",
      "MB", "paper", "ours", "paper", "ours", "paper", "ours", "paper",
      "ours");
  std::printf("  %s\n", std::string(84, '-').c_str());

  std::ofstream metrics_out("BENCH_metrics.json", std::ios::trunc);
  std::vector<obs::SpanRecord> spans;
  StageCounts stage_counts;
  bench::Report rep("table2", "full");

  double prev_ratio = 0;
  for (const Row& row : kPaper) {
    // The migrating slave holds half the training set.
    const auto slave_bytes =
        static_cast<std::size_t>(row.data_mb * 1e6 / 2.0);
    const double raw = raw_tcp_seconds(slave_bytes);
    const mpvm::MigrationStats s =
        migrate_once(row.data_mb, metrics_out, spans, stage_counts);
    const double ratio = s.obtrusiveness() / raw;
    std::printf(
        "  %-6.1f | %8.2f %8.2f | %8.2f %8.2f | %6.2f %6.2f | %8.2f %8.2f\n",
        row.data_mb, row.paper_raw_tcp, raw, row.paper_obtrusiveness,
        s.obtrusiveness(), row.paper_ratio, ratio, row.paper_migration,
        s.migration_time());
    rep.row("rows", {{"data_mb", row.data_mb},
                     {"raw_tcp_s", raw},
                     {"obtrusiveness_s", s.obtrusiveness()},
                     {"ratio", ratio},
                     {"migration_s", s.migration_time()},
                     {"paper_raw_tcp_s", row.paper_raw_tcp},
                     {"paper_obtrusiveness_s", row.paper_obtrusiveness},
                     {"paper_ratio", row.paper_ratio},
                     {"paper_migration_s", row.paper_migration}});
    char mb[16];
    std::snprintf(mb, sizeof mb, "%.1fMB", row.data_mb);
    rep.gate(std::string(mb) + ".raw_tcp_vs_obtrusiveness", raw, "<=",
             s.obtrusiveness());
    rep.gate(std::string(mb) + ".obtrusiveness_vs_migration",
             s.obtrusiveness(), "<=", s.migration_time());
    // The headline shape: the ratio falls toward 1 as size grows.
    if (&row != &kPaper[0])
      rep.gate(std::string(mb) + ".ratio_vs_previous", ratio, "<=",
               prev_ratio + 0.05);
    prev_ratio = ratio;
  }
  std::printf(
      "\n  Shape check (raw<=obtrusiveness<=migration; ratio decreasing "
      "toward 1): %s\n",
      rep.pass() ? "PASS" : "FAIL");
  std::printf("  metrics: wrote BENCH_metrics.json\n");
  // Every row's snapshot carries samples in all four stage histograms: an
  // instrumented stage that silently records nothing fails here.
  for (std::size_t i = 0; i < std::size(kStages); ++i)
    rep.gate(std::string("mpvm.stage.") + kStages[i] + ".min_count",
             stage_counts.min[i], ">", 0);

  bench::report_analytics(rep, spans);
  bench::write_trace_json(spans, "BENCH_trace.json");
  rep.gate("trace_audit_clean", bench::audit_spans(spans), "==", true);
  rep.write("BENCH_table2.json");
  return rep.pass() ? 0 : 1;
}
