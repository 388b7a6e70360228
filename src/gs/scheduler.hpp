// The Global Scheduler (GS) of the Concurrent Processing Environment
// (paper §2.0): the network-wide decision maker that watches workstation
// ownership and load, and orders migrations.
//
// All three systems "assume the presence of a network-wide global scheduler
// that embodies decision-making policies for sensibly scheduling multiple
// parallel jobs" and that initiates migrations.  This GS implements the two
// policies the paper motivates:
//   * vacate-on-reclaim — the owner is back, the parallel job must leave
//     (unobtrusiveness, §1);
//   * load threshold — a host got too busy, move work to the least-loaded
//     compatible host (effectiveness, §1).
//
// The GS drives whichever method is attached: MPVM process migration and
// UPVM ULP migration through the one mover contract (gs/mover.hpp), ADM
// withdraw/rejoin events by direct post.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/opt/adm_opt.hpp"
#include "gs/mover.hpp"
#include "load/exchange.hpp"
#include "load/placement.hpp"
#include "mpvm/checkpoint.hpp"
#include "os/owner.hpp"

namespace cpe::gs {

struct GsPolicy {
  bool vacate_on_reclaim = true;
  /// Move work off a host whose runnable load exceeds this (inf = off).
  double load_threshold = std::numeric_limits<double>::infinity();
  sim::Time poll_interval = 2.0;

  // -- Failure handling (crash-safe operation) -------------------------------
  /// Period of the heartbeat monitor that detects crashed/recovered hosts.
  sim::Time heartbeat_interval = 1.0;
  /// A failed vacate migration is retried against the next-best destination
  /// up to this many attempts in total.
  int max_migration_retries = 3;
  /// Delay before the first retry; each further retry multiplies it by
  /// `retry_backoff_factor` (exponential backoff), clamped at
  /// `retry_backoff_max` so a long outage episode cannot grow the delay
  /// geometrically into multi-hour virtual waits (or overflow sim::Time).
  sim::Time retry_backoff = 0.5;
  double retry_backoff_factor = 2.0;
  sim::Time retry_backoff_max = 30.0;

  // -- Placement (load/placement.hpp) ----------------------------------------
  /// Which rebalancing policy the monitor runs.  kThreshold reproduces the
  /// pre-placement-engine GS decision-for-decision; kNone disables
  /// rebalancing entirely (vacates still run).
  load::PolicyKind placement = load::PolicyKind::kThreshold;
  /// A rebalance must beat the post-move equal-load point by this much.
  double improvement_margin = 0.5;
  /// A rebalanced unit stays put at least this long (anti-thrash).
  sim::Time min_residency = 5.0;
  /// Gossiped load entries older than this are ignored by index policies.
  sim::Time staleness_bound = 5.0;
  /// Seconds over which BestFit must amortize the migration cost.
  sim::Time cost_horizon = 60.0;
  /// Cap on rebalance actions per monitor tick (index policies only).
  int max_rebalance_actions = 4;
  std::uint64_t placement_seed = 0x9c1ace;
  /// Load-index units per outstanding service request (see HostLoadView::
  /// outstanding).  0 keeps the batch-era decisions bit-identical; service
  /// scenarios raise it so queueing pressure, not just CPU load, drives the
  /// index policies.  Requires a pressure source (set_pressure_source).
  double queue_weight = 0;

  // -- Concurrent migration admission (DESIGN.md §12) ------------------------
  /// Cap on concurrently in-flight migration streams ordered by this GS;
  /// vacates and rebalances share the budget (AdmissionController).
  int max_concurrent_migrations = 4;
  /// A migration still unresolved after this long is presumed wedged: the
  /// deadlock watchdog orders an abort-and-rollback and frees its slot.
  sim::Time migration_watchdog = 60.0;

  /// The delay to wait after a failed attempt given the current backoff.
  /// Shared by every retry driver so the clamp cannot be forgotten in one.
  [[nodiscard]] sim::Time next_backoff(sim::Time current) const noexcept {
    const sim::Time next = current * retry_backoff_factor;
    return next < retry_backoff_max ? next : retry_backoff_max;
  }

  /// Reject misconfigured knobs loudly at attach time instead of letting a
  /// zero interval wedge a monitor loop or a negative threshold rebalance
  /// every host every tick.  Called by the GlobalScheduler constructor
  /// (and therefore by every HA replica core).
  void validate() const {
    CPE_EXPECTS(poll_interval > 0 &&
                "GsPolicy.poll_interval must be > 0 seconds");
    CPE_EXPECTS(heartbeat_interval > 0 &&
                "GsPolicy.heartbeat_interval must be > 0 seconds");
    CPE_EXPECTS((load_threshold == std::numeric_limits<double>::infinity() ||
                 (std::isfinite(load_threshold) && load_threshold >= 0)) &&
                "GsPolicy.load_threshold must be finite and >= 0, or "
                "infinity to disable the threshold policy");
    CPE_EXPECTS(max_migration_retries >= 1 &&
                "GsPolicy.max_migration_retries must be >= 1");
    CPE_EXPECTS(retry_backoff > 0 && "GsPolicy.retry_backoff must be > 0");
    CPE_EXPECTS(improvement_margin >= 0 &&
                "GsPolicy.improvement_margin must be >= 0");
    CPE_EXPECTS(min_residency >= 0 && "GsPolicy.min_residency must be >= 0");
    CPE_EXPECTS(staleness_bound > 0 &&
                "GsPolicy.staleness_bound must be > 0 seconds");
    CPE_EXPECTS(max_concurrent_migrations >= 1 &&
                "GsPolicy.max_concurrent_migrations must be >= 1");
    CPE_EXPECTS(migration_watchdog > 0 &&
                "GsPolicy.migration_watchdog must be > 0 seconds");
    CPE_EXPECTS(std::isfinite(queue_weight) && queue_weight >= 0 &&
                "GsPolicy.queue_weight must be finite and >= 0");
  }
};

/// Why the GS acted: typed alongside the human-readable journal text so
/// consumers (metrics, HA followers, benches) need not parse strings.
enum class DecisionReason : std::uint8_t {
  kNone,       ///< bookkeeping (heartbeats, blacklists, recovery)
  kReclaim,    ///< owner demanded the workstation back
  kOverload,   ///< legacy threshold tripped on live load
  kRebalance,  ///< an index placement policy chose to move work
};

[[nodiscard]] constexpr const char* to_string(DecisionReason r) noexcept {
  switch (r) {
    case DecisionReason::kNone: return "none";
    case DecisionReason::kReclaim: return "reclaim";
    case DecisionReason::kOverload: return "overload";
    case DecisionReason::kRebalance: return "rebalance";
  }
  return "?";
}

struct Decision {
  sim::Time t = 0;
  std::string what;
  bool ok = true;
  DecisionReason reason = DecisionReason::kNone;
  /// Load snapshot of the host that triggered the decision (0 when the
  /// decision is not load-related).
  double load = 0;

  Decision() = default;
  Decision(sim::Time t_, std::string what_, bool ok_)
      : t(t_), what(std::move(what_)), ok(ok_) {}
  Decision(sim::Time t_, std::string what_, bool ok_, DecisionReason reason_,
           double load_)
      : t(t_), what(std::move(what_)), ok(ok_), reason(reason_),
        load(load_) {}
};

/// Snapshot of the scheduler state a leader replicates to its followers so
/// a newly elected leader resumes mid-flight work instead of starting
/// blind: the decision journal, the failed-destination blacklist, the
/// host-liveness baseline, already-reported task losses, and the hosts
/// whose vacates are still open.
///
/// NOTE: deliberately not an aggregate (user-provided constructor) — this
/// type rides by value into send coroutines; see net::Datagram's GCC 12
/// note.
struct GsDurableState {
  std::uint64_t epoch = 0;
  /// `journal` holds the entries from `journal_base` onward: the leader
  /// replicates incrementally, sending each follower only the suffix past
  /// the journal length that follower last acked (0 = the full journal).
  /// Keeps per-heartbeat wire bytes proportional to what is new, not to
  /// the whole history.
  std::size_t journal_base = 0;
  std::vector<Decision> journal;
  std::vector<std::pair<std::string, sim::Time>> blacklist;
  std::vector<std::pair<std::string, bool>> host_up;
  std::vector<std::int32_t> reported_lost;
  std::vector<std::string> pending_vacates;
  /// Migration streams the leader had admitted but not yet seen resolve:
  /// a failover successor seeds its AdmissionController with these (as
  /// adopted entries) so it cannot over-admit while they still run.
  std::vector<load::AdmissionController::InFlight> in_flight_migrations;

  GsDurableState() noexcept {}
};

class GlobalScheduler {
 public:
  explicit GlobalScheduler(pvm::PvmSystem& vm, GsPolicy policy = {})
      : vm_(&vm),
        policy_((policy.validate(), policy)),
        engine_(policy.placement, policy.placement_seed),
        admission_(policy.max_concurrent_migrations) {}
  GlobalScheduler(const GlobalScheduler&) = delete;
  GlobalScheduler& operator=(const GlobalScheduler&) = delete;

  void attach(mpvm::Mpvm& m) { movers_[0] = make_mover(m); }
  void attach(upvm::Upvm& u) { movers_[1] = make_mover(u); }
  void attach(opt::AdmOpt& a) { adm_ = &a; }
  /// With a Checkpointer attached, tasks it watches are restarted from
  /// their last checkpoint when their host crashes (heartbeat-driven).
  void attach(mpvm::Checkpointer& c) { ckpt_ = &c; }
  /// With a LoadExchange attached, the monitor's index policies read the
  /// gossiped partial load map held at `at` (the host this scheduler runs
  /// on) instead of live-polling every CPU.  Hosts the map has not heard
  /// of — or whose entries exceed the staleness bound — are simply not
  /// rebalancing candidates this tick.  The legacy Threshold policy keeps
  /// reading live loads either way (byte-identical compatibility).
  void attach(load::LoadExchange& x, os::Host& at) {
    exchange_ = &x;
    gs_host_ = &at;
  }
  /// Queueing-pressure source for the service layer: called per host when
  /// the monitor builds its load views, the result lands in
  /// HostLoadView::outstanding (scaled into decisions by
  /// GsPolicy.queue_weight).  Typically sums svc::Frontend::outstanding_on
  /// across the scenario's frontends.  Unset, views carry 0 — the batch
  /// behaviour.
  void set_pressure_source(std::function<double(const os::Host&)> src) {
    pressure_ = std::move(src);
  }

  [[nodiscard]] const GsPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const std::vector<Decision>& journal() const noexcept {
    return journal_;
  }

  /// Owner-activity sink; wire via ScriptedOwner/StochasticOwner
  /// set_observer.  Reclaims (and, per policy, arrivals) vacate the host;
  /// departures post ADM rejoins.
  void on_owner_event(const os::OwnerEvent& ev);

  /// Order every movable unit off `host` (what a reclaim triggers).
  void vacate(os::Host& host);

  /// Start the periodic load monitor (load-threshold policy) running until
  /// `until`.
  void start_monitoring(sim::Time until);

  /// Start the heartbeat monitor running until `until`: detects host
  /// crashes (journalled ok=false) and recoveries, reports tasks lost in a
  /// crash, and drives checkpoint recovery of watched tasks.
  void start_heartbeat(sim::Time until);

  /// Least-loaded host that is migration-compatible with `from`, up, not
  /// temporarily blacklisted, and not `from` itself; nullptr when none.
  [[nodiscard]] os::Host* pick_destination(const os::Host& from) const;

  /// All eligible destinations for `from`, best (least loaded) first.
  /// Concurrent vacate drivers walk this list claiming the first whose
  /// (from, to) stream lane the admission controller has free, so k
  /// streams fan out over k distinct destinations.
  [[nodiscard]] std::vector<os::Host*> ranked_destinations(
      const os::Host& from) const;

  /// Migration-stream admission (budget, pair conflicts, watchdog state).
  [[nodiscard]] load::AdmissionController& admission() noexcept {
    return admission_;
  }
  [[nodiscard]] const load::AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// True while `host` is on the failed-destination blacklist.
  [[nodiscard]] bool is_blacklisted(const os::Host& host) const;

  /// The placement decision core (policy + anti-thrash hysteresis).
  [[nodiscard]] load::PlacementEngine& placement() noexcept {
    return engine_;
  }
  [[nodiscard]] const load::PlacementEngine& placement() const noexcept {
    return engine_;
  }

  // -- High availability (see gs/ha.hpp) ------------------------------------
  // A replicated deployment runs one GlobalScheduler core per replica; only
  // the elected leader is `active`.  An inactive core ignores owner events
  // and ticks, and its retry drivers wind down at their next step — the
  // next leader resumes them from the replicated state.

  /// Election term of the scheduler issuing commands; stamped (as the
  /// fencing epoch) onto every migrate/vacate/withdraw when > 0.
  void set_epoch(std::uint64_t e) noexcept { epoch_ = e; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  void set_active(bool on) noexcept { active_ = on; }
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Invoked synchronously after every journal/blacklist/intent change; the
  /// HA layer uses it to push fresh state to the followers promptly rather
  /// than waiting out a heartbeat interval.
  void set_replication_hook(std::function<void()> hook) {
    replication_hook_ = std::move(hook);
  }

  /// One scheduling round: heartbeat (crash/recovery detection) plus load
  /// monitor.  No-op while inactive.  The HA layer calls this from the
  /// leader's duty loop instead of start_monitoring/start_heartbeat.
  void tick();

  /// Snapshot the durable state, carrying only the journal entries from
  /// `journal_from` onward (clamped; 0 = full journal).
  [[nodiscard]] GsDurableState export_state(std::size_t journal_from = 0) const;
  void import_state(const GsDurableState& s);

  /// Called on the newly elected leader after import_state: re-issues every
  /// vacate the previous leader left open and re-baselines host liveness so
  /// crashes that happened during the leaderless window are handled now.
  void resume_after_failover();

  [[nodiscard]] pvm::PvmSystem& vm() const noexcept { return *vm_; }

 private:
  /// Get `unit` off `host`: admission, ranked destinations, retry with
  /// backoff and blacklisting, one "gs.vacate" span.  Scalars and pointers
  /// only by value (the GCC 12 coroutine rule).
  sim::Co<void> vacate_unit(Mover* m, std::int64_t unit, os::Host* host);
  /// Move one rebalanced unit under an already admitted `ticket`.
  sim::Co<void> rebalance_unit(Mover* m, std::int64_t unit, os::Host* to,
                               obs::SpanId span, std::uint64_t ticket);
  /// The attached mover whose id range holds `unit`, or nullptr.
  [[nodiscard]] Mover* mover_of(std::int64_t unit) const;
  void vacate_adm(os::Host& host, bool withdraw);
  /// Where ADM slave `s` lives; nullptr once it exited or was never spawned.
  [[nodiscard]] os::Host* adm_host(int s) const;
  void monitor_tick();
  void heartbeat_tick();
  /// Abort migrations stalled past `migration_watchdog` and reap adopted
  /// admission entries whose streams have resolved.  Heartbeat-driven.
  void watchdog_tick();
  /// admission().admit/release with the replication hook attached: the
  /// in-flight set is durable state, so followers must hear about it.
  [[nodiscard]] std::uint64_t admit_migration(std::int64_t unit,
                                              const std::string& from,
                                              const std::string& to);
  void release_migration(std::uint64_t ticket);
  /// Build the per-host views the PlacementEngine decides over: live CPU
  /// readings always, gossiped index + age when an exchange is attached.
  [[nodiscard]] std::vector<load::HostLoadView> build_views() const;
  [[nodiscard]] load::PlacementParams placement_params() const;
  /// Launch one rebalance per attached mover for one placement action (one
  /// victim each, exactly like the legacy monitor).  ADM takes no part: its
  /// slaves move only on owner events.
  void execute_rebalance(const load::PlacementAction& action);
  /// Crash fallout: report lost tasks, launch checkpoint recoveries.
  void handle_host_down(os::Host& host);
  /// Restart crash-stranded `victim` from its last checkpoint.
  sim::Co<void> recover_task(pvm::Tid victim, os::Host* from);
  void blacklist(os::Host& host);
  void note(std::string what, bool ok,
            DecisionReason reason = DecisionReason::kNone, double load = 0);

  /// The epoch stamp for subsystem commands (nullopt in legacy single-GS
  /// deployments, where epoch_ stays 0 and no fence is installed).
  [[nodiscard]] std::optional<std::uint64_t> stamp() const noexcept {
    return epoch_ > 0 ? std::optional<std::uint64_t>(epoch_) : std::nullopt;
  }
  void open_vacate(const std::string& host_name);
  void close_vacate(const std::string& host_name);

  pvm::PvmSystem* vm_;
  /// Cached `gs.load.cv` gauge (created on the first monitor tick; the
  /// registry guarantees pointer stability).
  obs::Gauge* load_cv_gauge_ = nullptr;
  GsPolicy policy_;
  load::PlacementEngine engine_;
  load::AdmissionController admission_;
  /// The attached movers in vacate order: MPVM tasks, then UPVM ULPs.
  std::array<std::unique_ptr<Mover>, 2> movers_;
  opt::AdmOpt* adm_ = nullptr;
  mpvm::Checkpointer* ckpt_ = nullptr;
  load::LoadExchange* exchange_ = nullptr;
  os::Host* gs_host_ = nullptr;  ///< where this scheduler's view lives
  std::vector<Decision> journal_;
  sim::ProcHandle monitor_;
  sim::ProcHandle heartbeat_;
  /// Load the GS has already ordered moved but the lagging (smoothed,
  /// gossiped) indices cannot show yet: host -> [(action time, delta)].
  /// Overlaid onto view.index for `staleness_bound` seconds so consecutive
  /// ticks don't herd every unit onto the same momentarily-cold host.
  /// Never touches instant/dest_rank (Threshold stays byte-identical).
  std::unordered_map<const os::Host*, std::vector<std::pair<sim::Time, double>>>
      pending_shift_;
  std::unordered_map<const os::Host*, sim::Time> blacklist_until_;
  std::unordered_map<const os::Host*, bool> host_up_;
  std::unordered_set<std::int32_t> reported_lost_;
  std::unordered_set<std::int64_t> recovering_;  ///< task units

  // -- HA state --------------------------------------------------------------
  bool active_ = true;
  std::uint64_t epoch_ = 0;
  std::function<void()> replication_hook_;
  /// Per-host queueing pressure for HostLoadView::outstanding (service
  /// workloads; nullptr for batch).
  std::function<double(const os::Host&)> pressure_;
  /// Units that already have a vacate driver running (prevents duplicate
  /// drivers when a vacate is re-issued after failover).
  std::unordered_set<std::int64_t> vacating_;
  /// Host name -> open vacate drivers; a host stays "pending" in the
  /// replicated state until every driver for it has wound down.
  std::unordered_map<std::string, int> vacate_open_;
  /// Vacates imported from a deposed leader, re-issued by
  /// resume_after_failover.
  std::vector<std::string> resume_pending_;
};

}  // namespace cpe::gs
