// High availability for the Global Scheduler (the tentpole of the
// crash-safe line of work): N GS replicas on distinct hosts, a
// heartbeat/term-based leader election in the raft-lite style, journal and
// blacklist replication from leader to followers, and a fencing epoch on
// every migration command.
//
// All three systems in the paper "assume the presence of a network-wide
// global scheduler" (§2.0) — a classic coordinator-as-single-point-of-
// failure, the same problem Condor's central manager and Sprite's migration
// server faced.  Here the GS becomes a small replicated state machine:
//
//  * Each replica owns a full GlobalScheduler core; only the elected
//    leader's core is active.  The leader piggybacks its durable state
//    (decision journal, blacklist, host-liveness baseline, open vacates) on
//    every heartbeat, so a newly elected leader resumes mid-flight retries
//    instead of starting blind.
//  * Election is term-based over the ordinary net:: datagram service (port
//    kGsPort): a follower that misses heartbeats past its (deterministic,
//    per-replica jittered) election timeout becomes a candidate, increments
//    the term, and requests votes; one vote per term, and a replica only
//    votes for candidates whose replicated journal is at least as long as
//    its own.  A majority of the *static* replica set wins — a minority
//    island can therefore never elect, which is what makes partitions safe.
//  * The winner's term doubles as the **fencing token**: becoming leader
//    raises the shared pvm::MigrationFence floor, its core stamps every
//    migrate/vacate/withdraw with the term, and MPVM/UPVM/ADM refuse any
//    command whose epoch is below the floor.  A deposed leader that still
//    thinks it is in charge (crashed back to life, or on the wrong side of
//    a partition) gets its commands bounced instead of causing a
//    double-migration.
//  * A leader also steps down on its own: if a majority of followers has
//    not acknowledged a heartbeat within the lease window it stops acting,
//    closing the other half of the split-brain scenario.
//
// With replicas = 1 the single replica elects itself at start and behaves
// exactly like the plain GlobalScheduler — every existing policy holds.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "gs/scheduler.hpp"
#include "pvm/fence.hpp"

namespace cpe::gs {

/// GS replicas talk replica-to-replica on this port (pvmds own 1023).
inline constexpr std::uint16_t kGsPort = 1022;

struct HaPolicy {
  /// Policy of the underlying scheduler core (each replica gets a copy).
  GsPolicy core{};
  /// Leader heartbeat period.  Failover latency and the missed-decision
  /// window both scale with this (bench_gs_failover sweeps it).
  sim::Time heartbeat_interval = 0.5;
  /// Seed for the per-replica election-timeout jitter draw.
  std::uint64_t seed = 42;
};

enum class ReplicaRole : std::uint8_t { kFollower, kCandidate, kLeader };

[[nodiscard]] std::string_view to_string(ReplicaRole r);

/// Replica-to-replica wire message.  NOTE: user-provided constructor — it
/// travels by value into send coroutines (see net::Datagram's GCC 12 note).
struct GsWireMessage {
  enum class Kind : std::uint8_t {
    kHeartbeat,     ///< leader -> follower, carries the durable state
    kHeartbeatAck,  ///< follower -> leader, renews the leader's lease
    kVoteRequest,   ///< candidate -> all
    kVoteGrant,     ///< voter -> candidate
  };

  Kind kind = Kind::kHeartbeat;
  int from = -1;            ///< sender's replica id
  std::uint64_t term = 0;   ///< sender's current term
  std::size_t journal_len = 0;  ///< sender's replicated-journal length
  GsDurableState state;     ///< piggybacked on heartbeats

  GsWireMessage() noexcept {}
  GsWireMessage(Kind k, int from_, std::uint64_t term_, std::size_t jlen)
      : kind(k), from(from_), term(term_), journal_len(jlen) {}
};

class HaScheduler;

/// One GS replica: a scheduler core plus the election/replication state
/// machine, resident on (and failing with) a specific host.
class GsReplica {
 public:
  GsReplica(HaScheduler& ha, int id, os::Host& host, sim::Time election_timeout);
  GsReplica(const GsReplica&) = delete;
  GsReplica& operator=(const GsReplica&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] os::Host& host() const noexcept { return *host_; }
  [[nodiscard]] ReplicaRole role() const noexcept { return role_; }
  [[nodiscard]] std::uint64_t term() const noexcept { return term_; }
  [[nodiscard]] GlobalScheduler& core() noexcept { return core_; }
  [[nodiscard]] const GlobalScheduler& core() const noexcept { return core_; }
  [[nodiscard]] sim::Time election_timeout() const noexcept {
    return election_timeout_;
  }
  /// Owner events dropped from the full pending buffer — potential missed
  /// decisions across a failover.
  [[nodiscard]] std::uint64_t pending_evictions() const noexcept {
    return pending_evictions_;
  }

  /// Deliver an owner event to this replica.  The leader's core acts on it
  /// immediately; a non-leader buffers it, because the event may be landing
  /// in a leaderless window (the old leader just died and nobody has won the
  /// election yet).  A new leader replays the buffered events it heard after
  /// it last heard the old leader — closing the missed-decision window
  /// without double-acting on events the old leader already handled.
  void on_owner_event(const os::OwnerEvent& ev);

 private:
  friend class HaScheduler;

  [[nodiscard]] sim::Engine& engine() const noexcept;
  void start(sim::Time until);
  void duty_tick();
  void on_message(const GsWireMessage& m);
  void on_host_event(os::HostEvent ev);
  void start_election();
  void become_leader();
  void step_down();
  /// Catch up to `term` and follow, stepping down if leading.
  void follow(std::uint64_t term);
  /// A message from this replica at its current term and journal length.
  [[nodiscard]] GsWireMessage message(GsWireMessage::Kind kind) const;
  /// Broadcast a heartbeat carrying the durable state, and note when.
  void heartbeat();
  void broadcast(GsWireMessage m, bool with_state);
  void post(int to, GsWireMessage m, bool with_state);
  [[nodiscard]] bool majority_lease_held() const;
  void on_core_change();

  HaScheduler* ha_;
  int id_;
  os::Host* host_;
  GlobalScheduler core_;
  sim::Time election_timeout_;

  ReplicaRole role_ = ReplicaRole::kFollower;
  std::uint64_t term_ = 0;
  std::uint64_t voted_in_term_ = 0;  ///< highest term we cast a vote in
  int votes_ = 0;
  /// Bit per replica id that granted a vote in the current candidacy, so a
  /// duplicated/replayed grant cannot be double-counted into a majority.
  std::uint64_t vote_granted_mask_ = 0;
  sim::Time last_heartbeat_ = 0;   ///< when we last heard a live leader
  sim::Time election_started_ = 0;
  sim::Time last_broadcast_ = -1e18;
  std::vector<sim::Time> peer_ack_;  ///< per-replica last heartbeat-ack
  /// Per-peer replicated-journal length the peer last acked; heartbeats to
  /// it carry only the journal suffix past this point.
  std::vector<std::size_t> peer_journal_len_;
  std::vector<os::OwnerEvent> pending_events_;  ///< heard while not leader
  std::uint64_t pending_evictions_ = 0;
  bool flush_scheduled_ = false;
  sim::ProcHandle duty_;
};

/// The replicated Global Scheduler facade: owns the replicas, the shared
/// fencing token, and the attach/wiring that used to target a single
/// GlobalScheduler.
class HaScheduler {
 public:
  /// A leadership handover, for failover-latency measurements.
  struct LeadershipChange {
    sim::Time t = 0;
    int replica = -1;
    std::uint64_t term = 0;

    LeadershipChange() noexcept {}
    LeadershipChange(sim::Time t_, int r, std::uint64_t term_)
        : t(t_), replica(r), term(term_) {}
  };

  /// Run one replica per host in `hosts` (distinct hosts; the first is the
  /// bootstrap leader).
  HaScheduler(pvm::PvmSystem& vm, std::vector<os::Host*> hosts,
              HaPolicy policy = {});
  HaScheduler(const HaScheduler&) = delete;
  HaScheduler& operator=(const HaScheduler&) = delete;

  /// Install the shared fence into a fenced subsystem (mpvm::Mpvm,
  /// upvm::Upvm, opt::AdmOpt, mpvm::Checkpointer), so stale-epoch commands
  /// are refused, and attach it to every replica core.
  template <class System>
  void attach(System& s) {
    s.set_fence(fence_);
    for (auto& r : replicas_) r->core().attach(s);
  }
  /// Each replica core reads the gossiped load map held at its *own* host:
  /// whoever is leader decides from the view its workstation actually has.
  void attach(load::LoadExchange& x);

  /// Bootstrap replica 0 as leader of term 1 and run every replica's duty
  /// loop until `until`.
  void start(sim::Time until);

  /// Owner-activity sink.  The event is heard by every replica whose host
  /// is up and network-reachable from the host where it happened; only the
  /// leader's core acts on it.
  void on_owner_event(const os::OwnerEvent& ev);

  [[nodiscard]] const HaPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] pvm::PvmSystem& vm() const noexcept { return *vm_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(replicas_.size());
  }
  [[nodiscard]] int majority() const noexcept { return size() / 2 + 1; }
  [[nodiscard]] GsReplica& replica(int i) {
    CPE_EXPECTS(i >= 0 && i < size());
    return *replicas_[static_cast<std::size_t>(i)];
  }

  /// The current leader: the highest-term live replica acting as leader
  /// (-1 / nullptr when the cluster is between leaders).
  [[nodiscard]] int leader_id() const;
  [[nodiscard]] GsReplica* leader();

  /// The authoritative decision journal (the current leader's; falls back
  /// to the longest replicated journal between leaders).
  [[nodiscard]] const std::vector<Decision>& journal() const;

  [[nodiscard]] const std::shared_ptr<pvm::MigrationFence>& fence()
      const noexcept {
    return fence_;
  }
  [[nodiscard]] const std::vector<LeadershipChange>& leadership_changes()
      const noexcept {
    return changes_;
  }

 private:
  friend class GsReplica;
  void note_leader(int replica, std::uint64_t term);

  pvm::PvmSystem* vm_;
  HaPolicy policy_;
  std::shared_ptr<pvm::MigrationFence> fence_;
  std::vector<std::unique_ptr<GsReplica>> replicas_;
  std::vector<LeadershipChange> changes_;
};

}  // namespace cpe::gs
