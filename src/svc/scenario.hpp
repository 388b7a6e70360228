// Seeded scenario generator: one declarative row = one reproducible
// service run (DESIGN.md §15.3).
//
// A ScenarioRow composes the three independent axes of a serving
// experiment — arrival process x placement policy x fault plan — plus the
// observability hookup (SLO rules, flight recorder) into a single value.
// Scenario::run() builds the whole stack from it (engine, network, hosts,
// PVM, MPVM, GS + gossip + queueing-pressure feed, analytics, frontends,
// faults), runs to the horizon plus a drain grace, and distils the run into
// a ScenarioResult.  Property sweeps (ServiceTailSweep) and the
// bench_service_tail policy matrix are both just tables of rows: a new
// scenario is a table entry, not a new harness.
//
// Determinism: every stochastic choice — arrivals, service demands, gossip
// peers, placement tie-breaks, fault schedules — draws from seeds derived
// from ScenarioRow::seed, so a row re-runs byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/placement.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"
#include "svc/frontend.hpp"

namespace cpe::svc {

enum class ArrivalKind : std::uint8_t { kPoisson, kDiurnal };
enum class FaultKind : std::uint8_t {
  kNone,
  kStorm,   ///< rotating owner-reclamation storm (external-job churn)
  kFlap,    ///< flapping links around a worker-host island
  kCrash,   ///< crash + later recovery of one worker host
  kFreeze,  ///< periodic transient freezes of one worker host
};

[[nodiscard]] const char* to_string(ArrivalKind k) noexcept;
[[nodiscard]] const char* to_string(FaultKind k) noexcept;

/// One declarative service scenario.  User-provided constructor (not an
/// aggregate): rows travel by value through sweep fixtures.
struct ScenarioRow {
  std::string name = "svc";

  // -- Topology --------------------------------------------------------------
  int hosts = 8;      ///< total; the first `frontends` never take faults
  int frontends = 1;  ///< shards of the open-loop source (one host each)
  int workers = 6;    ///< worker tasks, spread over the non-frontend hosts

  // -- Arrivals (per frontend shard) ----------------------------------------
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate = 100.0;       ///< requests/s (base rate for kDiurnal)
  double amplitude = 0.5;    ///< kDiurnal modulation depth [0,1]
  sim::Time period = 86400;  ///< kDiurnal period

  // -- Request shape ---------------------------------------------------------
  RouteKind route = RouteKind::kLeastOutstanding;
  double service_demand = 20e-3;  ///< mean demand (exponential), ref-sec
  sim::Time timeout = 2.0;
  std::uint64_t sample_every = 1;  ///< request-trace sampling stride
  std::size_t request_bytes = 256;
  std::size_t worker_image_bytes = 2 * 1024 * 1024;

  // -- Placement -------------------------------------------------------------
  load::PolicyKind policy = load::PolicyKind::kBestFit;
  bool precopy = false;
  double load_threshold = std::numeric_limits<double>::infinity();
  double queue_weight = 0.25;  ///< index units per outstanding request
  sim::Time poll_interval = 1.0;
  sim::Time min_residency = 5.0;

  // -- Faults ----------------------------------------------------------------
  FaultKind fault = FaultKind::kNone;
  int storm_hosts = 2;          ///< worker hosts reclaimed per storm window
  int storm_jobs = 6;           ///< owner jobs landing on each
  sim::Time storm_period = 30;  ///< window length (storm rotates each one)
  sim::Time fault_start = 10;   ///< first fault event

  // -- Run -------------------------------------------------------------------
  std::uint64_t seed = 1;
  sim::Time horizon = 120;
  double bandwidth_bps = 100e6;

  // -- Observability ---------------------------------------------------------
  std::size_t ring_windows = 256;
  std::vector<std::string> slo_rules;  ///< obs::SloRule::parse texts
  bool arm_flight_recorder = false;    ///< dump (once) on first violation

  ScenarioRow() {}
};

/// What one run boils down to.
struct ScenarioResult {
  std::string name;
  std::string policy;

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected = 0;
  std::uint64_t late = 0;
  std::size_t pending = 0;  ///< still unresolved after the drain grace
  /// issued == completed + timeouts + rejected and nothing pending.
  bool exactly_once = false;
  double requests_per_vday = 0;  ///< issued scaled to an 86400 s day

  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
  double queue_wait_p99 = 0;

  std::size_t migrations = 0;  ///< completed (MigrationStats history)
  double mean_freeze = 0;
  double max_freeze = 0;
  std::uint64_t thrash_violations = 0;
  std::size_t faults_injected = 0;

  std::size_t slo_violations = 0;
  std::uint64_t flight_dumps = 0;
  std::vector<std::string> flight_files;

  std::size_t spans = 0;
  std::size_t audit_violations = 0;
  std::string audit_report;  ///< first lines, for diagnostics

  ScenarioResult() {}
};

/// Build the stack a row describes, run it, distil the result.  When
/// `spans_out` is non-null the run's span records are appended to it
/// (bench trace exports); the auditor runs either way.
[[nodiscard]] ScenarioResult run_scenario(
    const ScenarioRow& row, std::vector<obs::SpanRecord>* spans_out = nullptr);

}  // namespace cpe::svc
