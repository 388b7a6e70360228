// The benchmark's three workloads.  Each builds its stack from the public
// API of the src/ modules, runs one repetition for a seed, and distils it
// into a RepOut: host times, virtual-time outcomes, per-layer counts, the
// determinism digest, and the output checks that failed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// One repetition of a workload, as a run pools it.
struct RepOut {
  double setup_s = 0;  ///< host s: worknet, programs, initial population
  double wall_s = 0;   ///< host s: the run phase, grace included
  std::uint64_t digest = 0;

  // User-facing operations (requests, or ordered migrations).
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t within_limit = 0;  ///< completed within the workload's limit
  std::vector<double> op_latency;  ///< virtual s, completed operations
  std::uint64_t op_censored = 0;   ///< failed operations, ranked at op_bound
  double op_bound = 0;

  std::vector<double> freeze;  ///< virtual s, one per migration
  double cv_sum = 0;           ///< load CV samples (sum and count)
  std::uint64_t cv_n = 0;
  double load_sum = 0;  ///< true runnable load per host sample
  std::uint64_t load_n = 0;

  std::map<std::string, double> sum;   ///< additive per-layer quantities
  std::map<std::string, double> peak;  ///< max-combined per-layer quantities
  std::vector<double> queue_wait;      ///< svc.serve queue waits, virtual s
  std::vector<double> stall;           ///< svc.serve stalls, virtual s
  std::vector<double> paper;           ///< measured, paper_reference() order
  std::vector<double> makespan;        ///< Opt makespan: MPVM, UPVM, ADM

  std::vector<std::string> failures;  ///< output checks that did not hold
};

/// Sizes of each workload; the defaults are what the benchmark runs, the
/// self-test runs shrunken copies.
struct FleetParams {
  int hosts = 512;
  int churn_hosts = 64;  ///< owner-churn window, rotates every 10 s
  double horizon = 60;
};

struct SvcParams {
  double rate = 75;  ///< per frontend shard, 2 shards
  double horizon = 600;
};

struct PaperParams {
  bool tables = true;       ///< Table 2/4/6 single migrations
  double opt_mb = 9.0;      ///< Opt training set under the reclaim
  int opt_iterations = 0;   ///< 0 = the paper's calibrated count
};

/// How a repetition is run: its seed, and the traced run's span recorder
/// (disabled in the untraced run).
struct RepConfig {
  std::uint64_t seed = 1;
  HostTrace* trace = nullptr;
};

RepOut run_fleet_churn(const RepConfig& cfg, const FleetParams& p = {});
RepOut run_svc_storm(const RepConfig& cfg, const SvcParams& p = {});
RepOut run_paper_reclaim(const RepConfig& cfg, const PaperParams& p = {});

}  // namespace perfbench
