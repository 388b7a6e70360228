// Tests of the benchmark's own helpers: nearest-rank percentiles (with
// censoring at a timeout), the paper-error arithmetic on the EXPERIMENTS.md
// rows, and digest stability across two in-process runs of each workload
// at a tiny size.  Exits nonzero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void percentiles() {
  using perfbench::nearest_rank;
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  expect(nearest_rank(ten, 0, 0, 0.50).value == 5, "p50 of 1..10 is 5");
  expect(nearest_rank(ten, 0, 0, 0.90).value == 9, "p90 of 1..10 is 9");
  expect(nearest_rank(ten, 0, 0, 0.95).value == 10, "p95 of 1..10 is 10");
  expect(nearest_rank(ten, 0, 0, 0.01).value == 1, "p1 of 1..10 is 1");
  expect(nearest_rank({4.0}, 0, 0, 0.5).value == 4, "one sample is every rank");
  expect(nearest_rank({}, 0, 0, 0.5).value == 0 &&
             nearest_rank({}, 0, 0, 0.5).n == 0,
         "no samples read 0");
  // 200 samples: p99 is rank 198, so two samples lie beyond it.
  std::vector<double> ramp;
  for (int i = 1; i <= 200; ++i) ramp.push_back(i * 0.01);
  expect(near(nearest_rank(ramp, 0, 0, 0.99).value, 1.98),
         "p99 of 200 samples is rank 198");
  // Censoring: timed-out requests rank at the timeout bound.
  const std::vector<double> done = {0.1, 0.2, 0.3};
  const perfbench::Percentile c50 = nearest_rank(done, 2, 10.0, 0.5);
  expect(c50.value == 0.3 && c50.n == 5 && c50.censored == 2,
         "p50 of 3 completed + 2 censored is the 3rd completed");
  expect(nearest_rank(done, 2, 10.0, 0.8).value == 10.0,
         "p80 of 3 completed + 2 censored is the timeout");
  expect(nearest_rank({}, 3, 2.0, 0.5).value == 2.0,
         "all censored reads the bound");
  // A completed sample above the bound still ranks above the censored.
  expect(nearest_rank({0.5, 12.0}, 1, 10.0, 1.0).value == 12.0,
         "censored samples rank at their bound, not at the top");
}

void paper_error() {
  const std::vector<double> ref = perfbench::paper_reference();
  expect(ref.size() == 20, "20 paper reference values");
  expect(near(perfbench::paper_err_pct(ref, ref), 0), "paper vs itself is 0%");
  std::vector<double> scaled;
  for (double v : ref) scaled.push_back(v * 1.1);
  expect(near(perfbench::paper_err_pct(scaled, ref), 10.0),
         "+10% everywhere is 10%");
  // The measured columns recorded in EXPERIMENTS.md (Tables 2, 4, 6).
  const std::vector<double> recorded = {
      1.20, 3.09, 3.93, 6.03, 7.98, 11.81,  // Table 2 obtrusiveness
      1.42, 3.31, 4.15, 6.25, 8.20, 12.03,  // Table 2 migration
      1.75, 6.94,                           // Table 4
      1.66, 4.52, 5.95, 9.00, 11.97, 17.89  // Table 6
  };
  expect(std::fabs(perfbench::paper_err_pct(recorded, ref) -
                   5.1701873541325485) < 1e-12,
         "EXPERIMENTS.md rows average 5.170% from the paper");
  expect(perfbench::paper_err_pct({1.0}, ref) < 0, "size mismatch is flagged");
}

template <class F>
void digest_stable(const char* name, F run) {
  perfbench::RepConfig a;
  a.seed = 7;
  const perfbench::RepOut x = run(a);
  const perfbench::RepOut y = run(a);
  perfbench::RepConfig b;
  b.seed = 8;
  const perfbench::RepOut z = run(b);
  expect(x.failures.empty() && y.failures.empty(),
         std::string(name) + ": tiny run passes its output checks" +
             (x.failures.empty() ? "" : " (" + x.failures.front() + ")"));
  expect(x.digest == y.digest,
         std::string(name) + ": same seed, same digest in one process");
  expect(x.digest != z.digest, std::string(name) + ": another seed differs");
  // The traced pass must not perturb the simulation.
  perfbench::HostTrace tr(true);
  perfbench::RepConfig t = a;
  t.trace = &tr;
  expect(run(t).digest == x.digest && tr.size() > 0,
         std::string(name) + ": traced run keeps the digest");
}

}  // namespace

int main() {
  std::printf("perfbench self-test\n");
  percentiles();
  paper_error();

  perfbench::FleetParams fleet;
  fleet.hosts = 32;
  fleet.churn_hosts = 4;
  fleet.horizon = 30;
  digest_stable("fleet_churn", [&](const perfbench::RepConfig& c) {
    return perfbench::run_fleet_churn(c, fleet);
  });
  perfbench::SvcParams svc;
  svc.horizon = 90;
  svc.rate = 20;
  digest_stable("svc_storm", [&](const perfbench::RepConfig& c) {
    return perfbench::run_svc_storm(c, svc);
  });
  perfbench::PaperParams paper;
  paper.tables = false;
  paper.opt_mb = 0.6;
  paper.opt_iterations = 2;
  digest_stable("paper_reclaim", [&](const perfbench::RepConfig& c) {
    return perfbench::run_paper_reclaim(c, paper);
  });

  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
