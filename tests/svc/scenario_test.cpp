#include "svc/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace cpe::svc {
namespace {

// ScenarioResult's percentiles come from the svc.latency histogram.  With
// every request traced and none timed out, the completed svc.request spans
// hold the exact latencies, so the reported p99 must lie within the
// histogram's documented bound, +9.05% (2^(1/8)), of their nearest-rank
// p99.
TEST(Scenario, LatencyP99IsWithinTheHistogramBound) {
  ScenarioRow row;
  row.name = "p99_bound";
  row.hosts = 4;
  row.workers = 3;
  row.rate = 60.0;
  row.horizon = 20.0;
  row.sample_every = 1;
  std::vector<obs::SpanRecord> spans;
  const ScenarioResult r = run_scenario(row, &spans);
  ASSERT_EQ(r.timeouts, 0u);
  ASSERT_EQ(r.rejected, 0u);

  std::vector<double> latency;
  for (const obs::SpanRecord& s : spans)
    if (s.name == "svc.request" && s.status == obs::SpanStatus::kOk)
      latency.push_back(s.duration());
  ASSERT_EQ(latency.size(), r.completed);
  ASSERT_GT(latency.size(), 500u);
  std::sort(latency.begin(), latency.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latency.size())));
  const double exact = latency[rank - 1];
  EXPECT_GE(r.latency_p99, exact);
  EXPECT_LT(r.latency_p99, exact * std::exp2(1.0 / 8));
}

}  // namespace
}  // namespace cpe::svc
