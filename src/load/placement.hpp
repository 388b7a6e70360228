// Pluggable placement policies for the Global Scheduler (DESIGN.md §11.3).
//
// The GS folds whatever it knows about each host — the live CPU reading,
// the gossiped smoothed index and its age, how many movable units sit
// there, blacklist status — into one HostLoadView per host and asks the
// PlacementEngine for (from, to) actions.  Four policies hide behind the
// one interface:
//
//   Threshold       — the legacy central policy, bit-for-bit: any host
//                     whose *live* load exceeds the threshold sheds one
//                     unit to the least-loaded compatible host, guarded by
//                     the original "+1.0 lighter" margin.
//   BestFit         — overloaded-by-index hosts shed to the destination
//                     with the lowest effective index, but only when the
//                     projected gain clears the improvement margin AND
//                     amortizes the calib/costs.hpp migration cost over
//                     `cost_horizon` seconds.
//   DestinationSwap — Avin et al.: random disjoint host pairs; when a
//                     pair's load gap is wide enough, the hot side sheds
//                     one unit to the cold side.  O(1) information per
//                     decision, no global view needed.
//   WorkSteal       — inverted initiative: hosts far *below* the mean pull
//                     one unit from the hottest host.
//
// The engine also owns the anti-thrash hysteresis: every moved unit gets a
// minimum-residency stamp, and policies' improvement margins ensure a move
// that just happened cannot look profitable in reverse.  Violations (a
// unit moved again within its residency window) are counted, and the bench
// acceptance gate requires that count to be zero.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "calib/costs.hpp"
#include "os/host.hpp"
#include "sim/random.hpp"

namespace cpe::load {

enum class PolicyKind : std::uint8_t {
  kNone,       ///< no load balancing (baseline)
  kThreshold,  ///< legacy central threshold (default; byte-identical)
  kBestFit,    ///< least-loaded destination, cost-aware
  kDestinationSwap,  ///< Avin et al. random pairwise swaps
  kWorkSteal,  ///< underloaded hosts pull
};

[[nodiscard]] const char* to_string(PolicyKind k) noexcept;
/// Inverse of to_string; kThreshold for unknown names.
[[nodiscard]] PolicyKind policy_kind_from(const std::string& name) noexcept;

/// Everything the GS knows about one host when it decides.
struct HostLoadView {
  os::Host* host = nullptr;
  double instant = 0;    ///< live cpu().load() right now
  double dest_rank = 0;  ///< legacy destination rank: load() + external_jobs()
  double index = 0;      ///< smoothed load index (gossiped or local)
  sim::Time age = 0;     ///< staleness of `index` (0 when read locally)
  int movable = 0;       ///< movable units (tasks/ULPs/slaves) on the host
  bool up = true;
  bool eligible = true;  ///< usable as a destination (not blacklisted)
  /// Queueing pressure: requests in flight on this host's service workers
  /// (svc::Frontend::outstanding_on, fed in via GlobalScheduler::
  /// set_pressure_source).  Stays 0 for batch workloads, and enters
  /// decisions only scaled by PlacementParams::queue_weight, so the default
  /// configuration is bit-for-bit the pre-svc behaviour.
  double outstanding = 0;

  HostLoadView() noexcept {}
  HostLoadView(os::Host* host_, double instant_, double dest_rank_,
               double index_, sim::Time age_, int movable_, bool up_,
               bool eligible_)
      : host(host_),
        instant(instant_),
        dest_rank(dest_rank_),
        index(index_),
        age(age_),
        movable(movable_),
        up(up_),
        eligible(eligible_) {}
};

/// Coefficient of variation (stddev / mean) of instant load across the up
/// hosts in a view set: THE cluster-imbalance figure.  0 when the cluster
/// is empty or idle.  The GS publishes it as the `gs.load.cv` gauge every
/// monitor tick, which obs::Analytics turns into a windowed series SLO
/// rules (load-CV ceiling) evaluate against.
[[nodiscard]] inline double load_cv(const std::vector<HostLoadView>& views) {
  double sum = 0;
  std::size_t n = 0;
  for (const HostLoadView& v : views)
    if (v.up) {
      sum += v.instant;
      ++n;
    }
  if (n == 0) return 0.0;
  const double mean = sum / static_cast<double>(n);
  if (mean <= 0) return 0.0;
  double var = 0;
  for (const HostLoadView& v : views)
    if (v.up) {
      const double d = v.instant - mean;
      var += d * d;
    }
  var /= static_cast<double>(n);
  return std::sqrt(var) / mean;
}

struct PlacementParams {
  double load_threshold = std::numeric_limits<double>::infinity();
  /// A move must beat the post-move equal-load point by this much.
  double improvement_margin = 0.5;
  /// A unit that moved stays put at least this long (thrash guard).
  sim::Time min_residency = 5.0;
  /// Index entries older than this are ignored by the index-based policies.
  sim::Time staleness_bound = 5.0;
  /// When set, BestFit amortizes the estimated migration cost.
  const calib::CostModel* costs = nullptr;
  double image_bytes = 1.0 * 1024 * 1024;  ///< typical migratable image
  sim::Time cost_horizon = 60.0;  ///< seconds over which a move must pay off
  int max_actions = 4;  ///< per decision round (Threshold is uncapped)
  /// Decision time, for the engine's host-settle filter (0 = disabled).
  sim::Time now = 0;
  /// Load-index units per outstanding request: the index-based policies
  /// rank hosts by `index + queue_weight * outstanding`.  0 (the default)
  /// ignores queueing pressure entirely; Threshold never reads it (its
  /// byte-identical legacy contract predates the service layer).
  double queue_weight = 0;

  PlacementParams() noexcept {}
};

struct PlacementAction {
  os::Host* from = nullptr;
  os::Host* to = nullptr;
  double from_load = 0;  ///< the load figure that triggered the action
  double to_load = 0;

  PlacementAction() noexcept {}
  PlacementAction(os::Host* from_, os::Host* to_, double from_load_,
                  double to_load_)
      : from(from_), to(to_), from_load(from_load_), to_load(to_load_) {}
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual std::vector<PlacementAction> decide(
      const std::vector<HostLoadView>& views, const PlacementParams& p,
      sim::Rng& rng) const = 0;
};

[[nodiscard]] std::unique_ptr<PlacementPolicy> make_policy(PolicyKind k);

/// The GS-resident decision core: one policy plus the hysteresis table.
/// Units are identified by an opaque 64-bit id (the GS namespaces tids,
/// ULP instances and ADM slaves into disjoint ranges).
class PlacementEngine {
 public:
  explicit PlacementEngine(PolicyKind kind = PolicyKind::kThreshold,
                           std::uint64_t seed = 0x9c1ace)
      : rng_(seed) {
    set_policy(kind);
  }
  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  void set_policy(PolicyKind kind) {
    kind_ = kind;
    policy_ = make_policy(kind);
  }
  [[nodiscard]] PolicyKind kind() const noexcept { return kind_; }
  [[nodiscard]] const char* name() const noexcept {
    return policy_ ? policy_->name() : "none";
  }

  [[nodiscard]] std::vector<PlacementAction> decide(
      const std::vector<HostLoadView>& views, const PlacementParams& p) {
    if (policy_ == nullptr) return {};
    std::vector<PlacementAction> actions = policy_->decide(views, p, rng_);
    // Host-settle filter (index policies only): a host that just took part
    // in a move has an unsettled smoothed index — the monitor fires exactly
    // when the stale gap looks widest, so acting on either endpoint again
    // before the sensors catch up reverses the move forever (limit cycle).
    // Threshold reads live loads and keeps its byte-identical behaviour.
    if (kind_ != PolicyKind::kThreshold) {
      std::erase_if(actions, [&](const PlacementAction& a) {
        return settling(a.from, p.now) || settling(a.to, p.now);
      });
    }
    return actions;
  }

  // -- Hysteresis -----------------------------------------------------------
  /// May `unit` be rebalanced now?  False (and counted) within its
  /// residency window.
  [[nodiscard]] bool may_move(std::int64_t unit, sim::Time now,
                              sim::Time min_residency) {
    const auto it = last_move_.find(unit);
    if (it != last_move_.end() && now - it->second < min_residency) {
      ++residency_rejections_;
      return false;
    }
    return true;
  }
  /// A rebalance of `unit` completed: stamp it, counting a violation when
  /// it was still inside its window (should never happen — bench gate).
  void record_move(std::int64_t unit, sim::Time now,
                   sim::Time min_residency) {
    const auto it = last_move_.find(unit);
    if (it != last_move_.end() && now - it->second < min_residency)
      ++thrash_violations_;
    last_move_[unit] = now;
  }
  /// A *vacate* moved `unit` (policy-mandated, exempt from the residency
  /// check): restart its window without counting anything.
  void touch(std::int64_t unit, sim::Time now) { last_move_[unit] = now; }

  /// A rebalance was *ordered* between these hosts: both sensors are now
  /// unsettled, so the engine refuses further index-policy actions touching
  /// either endpoint until the window passes.
  void record_settle(const os::Host* a, const os::Host* b, sim::Time now,
                     sim::Time window) {
    if (a != nullptr) settle_until_[a] = now + window;
    if (b != nullptr) settle_until_[b] = now + window;
  }
  [[nodiscard]] bool settling(const os::Host* h, sim::Time now) const {
    const auto it = settle_until_.find(h);
    return it != settle_until_.end() && now < it->second;
  }

  [[nodiscard]] std::uint64_t thrash_violations() const noexcept {
    return thrash_violations_;
  }
  [[nodiscard]] std::uint64_t residency_rejections() const noexcept {
    return residency_rejections_;
  }

 private:
  PolicyKind kind_ = PolicyKind::kThreshold;
  std::unique_ptr<PlacementPolicy> policy_;
  sim::Rng rng_;
  std::unordered_map<std::int64_t, sim::Time> last_move_;
  std::unordered_map<const os::Host*, sim::Time> settle_until_;
  std::uint64_t thrash_violations_ = 0;
  std::uint64_t residency_rejections_ = 0;
};

/// Bounded-concurrency admission for migration streams (DESIGN.md §12).
///
/// The GS takes a ticket here before every migration it orders — vacates
/// and rebalances share the budget — and releases it when the protocol
/// resolves.  Three refusal rules:
///
///   * budget — at most `max_concurrent` streams in flight;
///   * pair conflict — one stream per ordered (from, to) host pair, so k
///     concurrent drains fan out across k destinations instead of herding
///     onto the momentarily least-loaded one;
///   * reverse pair — a stream against an in-flight (to, from) stream is
///     thrash, not balancing, and is refused outright.
///
/// Refusals are cheap: the caller just retries next tick (rebalance) or
/// after a short wait (vacate driver).  In-flight entries are part of the
/// GS's durable state; a failover successor imports them as *adopted*
/// entries so it cannot over-admit while a predecessor's streams still run,
/// and reaps them as those streams resolve.
class AdmissionController {
 public:
  struct InFlight {
    std::int64_t unit = 0;
    std::string from;
    std::string to;
    sim::Time since = 0;
    std::uint64_t ticket = 0;
    bool adopted = false;  ///< imported from a deposed leader's journal

    InFlight() {}
    InFlight(std::int64_t unit_, std::string from_, std::string to_,
             sim::Time since_, std::uint64_t ticket_, bool adopted_)
        : unit(unit_),
          from(std::move(from_)),
          to(std::move(to_)),
          since(since_),
          ticket(ticket_),
          adopted(adopted_) {}
  };

  explicit AdmissionController(int max_concurrent = 4)
      : max_(max_concurrent) {}

  [[nodiscard]] int max_concurrent() const noexcept { return max_; }

  /// Probe only: would a stream from `from` to `to` be admitted right now?
  [[nodiscard]] bool would_admit(const std::string& from,
                                 const std::string& to) const;
  /// Claim a slot; returns 0 on refusal, else a ticket for release().
  [[nodiscard]] std::uint64_t admit(std::int64_t unit, const std::string& from,
                                    const std::string& to, sim::Time now);
  /// The stream behind `ticket` resolved (either way); frees its slot.
  void release(std::uint64_t ticket);

  [[nodiscard]] bool unit_in_flight(std::int64_t unit) const;
  [[nodiscard]] std::size_t active() const noexcept {
    return in_flight_.size();
  }
  [[nodiscard]] const std::vector<InFlight>& in_flight() const noexcept {
    return in_flight_;
  }
  /// Streams in flight longer than `age`: deadlock-watchdog candidates.
  [[nodiscard]] std::vector<InFlight> stalled(sim::Time now,
                                              sim::Time age) const;
  [[nodiscard]] std::uint64_t refusals() const noexcept { return refusals_; }

  /// Failover: replace all adopted entries with a predecessor's in-flight
  /// set (locally owned tickets are kept).
  void import_adopted(const std::vector<InFlight>& entries, sim::Time now);
  /// Drop adopted entries whose migration `still_running` denies — the
  /// predecessor's stream resolved without us ever owning its ticket.
  void reap_adopted(const std::function<bool(std::int64_t)>& still_running);

 private:
  int max_ = 4;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t refusals_ = 0;
  std::vector<InFlight> in_flight_;
};

}  // namespace cpe::load
