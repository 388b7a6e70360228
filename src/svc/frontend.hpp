// Request lifecycle for the service workload subsystem (DESIGN.md §15).
//
// A Frontend is one open-loop load source: it spawns a parked "svc.frontend"
// task on its host (the addressable endpoint completions come back to), a
// pool of "svc.worker" tasks across the worker hosts, and then pumps the
// arrival process — one pooled engine event per request, never waiting for
// replies.  Each request is a plain PVM data message to a worker chosen by
// the routing policy; the completion is a control-tagged library message
// back to the frontend, so it bypasses send gates (a completion must not
// block behind its own worker's migration freeze) and stays out of the
// scoped-flush correspondent sets.
//
// Workers are ordinary migratable MPVM tasks: they recv, compute the
// request's service demand, reply.  Migration can land anywhere in that
// loop — mid-compute or recv-blocked — which is exactly the interleaving
// the tail-latency story is about: the request's "svc.serve" span records
// `stall` = wall time minus demand, attributing freeze windows and CPU
// contention to the requests that overlapped them.
//
// Every request resolves exactly once: completion cancels the pending
// timeout event; a timeout retires the request at the censored latency
// (recorded into svc.latency at the timeout bound, so a policy that lets
// requests die cannot launder its tail); a completion that races past its
// timeout is counted as `late` and changes nothing else.  The
// TraceAuditor's request-completeness invariant (obs/audit.hpp, invariant
// 9) replays sampled request traces and checks this from the span record
// alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/analytics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "os/host.hpp"
#include "pvm/system.hpp"
#include "pvm/task.hpp"
#include "sim/random.hpp"
#include "svc/arrival.hpp"

namespace cpe::svc {

/// Request messages travel as ordinary application data (they queue in the
/// worker mailbox and move with a migrating worker); completions are
/// library-level control messages (handled at delivery on the frontend).
inline constexpr int kTagRequest = 7101;
inline constexpr int kTagPark = 7102;  ///< never sent: parks the frontend
inline constexpr int kTagComplete = pvm::kControlTagBase + 96;

/// How the frontend picks a worker for each request.
enum class RouteKind : std::uint8_t {
  kRoundRobin,        ///< cycle through live workers
  kLeastOutstanding,  ///< fewest requests in flight (power of all choices)
};

[[nodiscard]] const char* to_string(RouteKind k) noexcept;

/// Knobs for one Frontend.  User-provided constructor (not an aggregate):
/// options travel by value into the launch coroutine frame.
struct FrontendOptions {
  RouteKind route = RouteKind::kRoundRobin;
  sim::Time timeout = 2.0;          ///< per-request deadline
  double service_demand = 20e-3;    ///< mean demand, exponential (ref-sec)
  std::uint64_t sample_every = 1;   ///< trace every Nth request (0 = none)
  std::size_t request_bytes = 256;  ///< payload padding per request
  std::size_t worker_image_bytes = 2 * 1024 * 1024;  ///< data segment
  std::uint64_t seed = 1;  ///< demand draws

  FrontendOptions() {}
};

/// One open-loop request source: arrival process x routing policy x worker
/// pool.  Construct, then launch(); read the tallies after the run.
class Frontend {
 public:
  Frontend(pvm::PvmSystem& vm, std::unique_ptr<ArrivalProcess> arrivals,
           FrontendOptions opts);
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Spawn the frontend task on `host` and one worker per entry of
  /// `worker_hosts`, then pump arrivals until `horizon`.  Runs as a spawned
  /// setup coroutine; the Frontend must outlive the engine run.
  void launch(os::Host& host, std::vector<os::Host*> worker_hosts,
              sim::Time horizon);

  // -- Tallies (every issued request lands in exactly one bucket) ----------
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  /// Completions that arrived after their timeout already retired the
  /// request (counted, otherwise ignored — never a double resolve).
  [[nodiscard]] std::uint64_t late() const noexcept { return late_; }
  /// Requests still in flight (0 after the grace window drains).
  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }

  /// Requests in flight on workers currently living on `host` — the
  /// queueing-pressure component the GS feeds into HostLoadView (see
  /// GlobalScheduler::set_pressure_source).
  [[nodiscard]] double outstanding_on(const os::Host& host) const;

  [[nodiscard]] const std::vector<pvm::Tid>& worker_tids() const noexcept {
    return worker_tids_;
  }

 private:
  struct Pending {
    std::size_t worker = 0;  ///< index into worker_tids_
    sim::Time issued_at = 0;
    obs::SpanId span = 0;  ///< 0 = unsampled
    sim::EventId timeout_ev;
    Pending() {}
  };

  [[nodiscard]] sim::Co<void> init(os::Host* host,
                                   std::vector<os::Host*> worker_hosts,
                                   sim::Time horizon);
  void pump(sim::Time horizon);
  void dispatch_one();
  void on_complete(pvm::Message m);
  void on_timeout(std::uint64_t id);
  void retire(std::unordered_map<std::uint64_t, Pending>::iterator it);
  /// -1 when no live worker exists.
  [[nodiscard]] long pick_worker();
  [[nodiscard]] bool worker_live(std::size_t i) const;

  pvm::PvmSystem* vm_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  FrontendOptions opts_;
  sim::Rng rng_;
  std::vector<std::byte> pad_;

  pvm::Tid ftid_;
  std::vector<pvm::Tid> worker_tids_;
  std::vector<std::uint32_t> outstanding_;  ///< per worker index

  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 0;
  std::size_t rr_ = 0;

  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t late_ = 0;

  obs::Histogram* latency_;
  obs::Counter* c_issued_;
  obs::Counter* c_completed_;
  obs::Counter* c_timeouts_;
  obs::Counter* c_rejected_;
  obs::Counter* c_late_;
  obs::Gauge* inflight_;
};

/// Register the svc metric series with an Analytics instance so SLO rules
/// over them (e.g. "p99(svc.latency) <= 0.5 for 3") can arm the flight
/// recorder.  Call after the metrics exist (i.e. after any Frontend is
/// constructed against the same registry).
void track_service_metrics(obs::Analytics& an);

}  // namespace cpe::svc
