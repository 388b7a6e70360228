// MPVM: transparent migration of process-based virtual processors
// (paper §2.1, evaluated in §4.1).
//
// The protocol has four stages, driven here exactly as the paper describes:
//
//   1. Migration event — the global scheduler orders the mpvmd on the
//      to-be-vacated host to move a task.  A SIGMIGRATE is delivered; if the
//      task is executing inside the run-time library, migration waits until
//      it leaves (the re-entrancy restriction of §2.1), otherwise the task
//      is frozen wherever it is — mid-computation or blocked in pvm_recv.
//   2. Message flushing — a flush message goes to every other task; each
//      acknowledges and from then on *blocks* any send to the migrating
//      task.  Because flush/ack travel the same FIFO channels as data, an
//      ack guarantees all earlier messages have been delivered.
//   3. VP state transfer — a skeleton process (same executable) is started
//      on the destination; the data/heap/stack/context image plus queued
//      messages stream to it over a dedicated TCP connection.
//   4. Restart — the migrated process re-enrolls with the destination mpvmd
//      (getting a new tid), broadcasts a restart message that both unblocks
//      pending senders and installs the old->new tid mapping everyone's
//      library consults from then on.
//
// Measurement hooks mirror the paper's two metrics: *obtrusiveness* (event ->
// work off the source machine, i.e. end of stage 3) and *migration cost*
// (event -> task re-integrated, end of stage 4).
//
// Concurrency redesign (DESIGN.md §12): the flush round is *scoped* to the
// victim's correspondent set, a correspondent itself frozen mid-migration
// has its ack substituted by its mpvmd stub, the skeleton left on the old
// host forwards residual messages (with per-victim fencing epochs dropping
// stale mappings), and an optional pre-copy stage streams the image while
// the task still runs so the freeze window is O(dirty residue) instead of
// O(image).  Together these let N migrations proceed concurrently without
// the cross-flush deadlock that used to force one-at-a-time scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pvm/fence.hpp"
#include "pvm/system.hpp"

namespace cpe::mpvm {

/// Control tags used by the MPVM runtime.
inline constexpr int kTagFlush = pvm::kControlTagBase + 1;
inline constexpr int kTagFlushAck = pvm::kControlTagBase + 2;
inline constexpr int kTagRestart = pvm::kControlTagBase + 3;
/// Broadcast when a migration is rolled back: peers reopen their send gates
/// to the victim without installing any tid re-mapping.
inline constexpr int kTagMigrateAbort = pvm::kControlTagBase + 4;
/// Sent by the residual-forwarding stub to a sender still using a migrated
/// task's old tid: carries the new mapping plus its migration epoch so the
/// sender's next message goes direct instead of bouncing off the old host.
inline constexpr int kTagRouteUpdate = pvm::kControlTagBase + 5;

/// A relocated task's new mapping: its fresh routing tid and the fencing
/// epoch that orders this relocation against earlier ones.
struct Reenrollment {
  pvm::Tid fresh{};
  std::uint64_t epoch = 0;
};

/// The restart step every relocation ends in — MPVM's stage 4 and the
/// Checkpointer's restart from a server image alike.  `t`'s process has
/// already moved to `dst`: re-enroll it there under a fresh tid, bump its
/// relocation epoch, and send each live task in `peers` (other than `t`) the
/// kTagRestart announcement (task, fresh tid, epoch) that installs the
/// mapping and reopens its send gate.
Reenrollment reenroll(pvm::PvmSystem& vm, pvm::Task& t, os::Host& dst,
                      std::span<pvm::Task* const> peers);

class MigrationError : public Error {
 public:
  using Error::Error;
};

/// Protocol checkpoints of one migration, reported to stage observers as the
/// protocol advances.  kFailed is reported once when a migration rolls back.
enum class MigrationStage : std::uint8_t {
  kEvent,
  kFrozen,
  kFlushed,
  kTransferred,
  kRestarted,
  kFailed,
};

[[nodiscard]] std::string_view to_string(MigrationStage s);

/// Deadlines for the blocking stages of the protocol.  On expiry the
/// migration rolls back instead of hanging (a dead peer never acks a flush;
/// a crashed destination never drains the state stream).
struct MpvmTimeouts {
  sim::Time flush_ack = 5.0;  ///< stage-2: all acks in by then
  sim::Time transfer = 30.0;  ///< stage-3: state off the source by then
};

/// Tuning of the concurrent-migration machinery (DESIGN.md §12).
struct MpvmTuning {
  /// Incremental transfer: stream the image while the task still runs, then
  /// freeze only for the dirty residue.  Off by default — the paper's
  /// Table 2 numbers are full-image stop-and-copy.
  bool precopy = false;
  /// How fast the still-running task re-dirties its image during pre-copy;
  /// the residue moved under freeze is min(image, rate * precopy_duration),
  /// floored at the context pages (always dirty at freeze).
  double dirty_rate_bps = 0.5e6 * 8;
  /// How long the old host's stub keeps its residual-forwarding record (and
  /// keeps teaching stale senders the new mapping) after a restart.
  sim::Time residual_window = 30.0;
};

/// Timing of one migration (Figure 1 / Table 2 reproduction).  Failed
/// migrations (ok == false) carry the timestamps reached before the abort
/// and a human-readable failure reason; they are not entered in history().
struct MigrationStats {
  pvm::Tid task{};
  std::string from_host;
  std::string to_host;
  std::size_t state_bytes = 0;    ///< full VP state (image + queued messages)
  std::size_t precopy_bytes = 0;  ///< streamed while the task still ran
  std::size_t residue_bytes = 0;  ///< moved during the freeze window
  bool ok = true;
  std::string failure;  ///< empty when ok

  sim::Time event_time = 0;     ///< migrate order received
  sim::Time frozen_time = 0;    ///< task stopped (signal + library exit)
  sim::Time flush_done = 0;     ///< all flush acks in
  sim::Time transfer_done = 0;  ///< state fully off the source host
  sim::Time restart_done = 0;   ///< restart broadcast out, task resumed

  [[nodiscard]] sim::Time obtrusiveness() const {
    return transfer_done - event_time;
  }
  [[nodiscard]] sim::Time migration_time() const {
    return restart_done - event_time;
  }
  /// Time the task was actually stopped (the user-visible stall).  With
  /// pre-copy this is O(residue); stop-and-copy makes it O(image).
  [[nodiscard]] sim::Time freeze_window() const {
    return restart_done - frozen_time;
  }
};

/// The per-call library overhead MPVM adds to stock PVM (§4.1.1): the
/// re-entrancy flag and the tid re-map on every send and receive.
class MpvmShim final : public pvm::LibraryShim {
 public:
  explicit MpvmShim(const calib::MpvmCosts& c) : costs_(c) {}
  [[nodiscard]] sim::Time send_overhead(const pvm::Task&) const override {
    return costs_.reentry_flag + costs_.tid_remap;
  }
  [[nodiscard]] sim::Time recv_overhead(const pvm::Task&) const override {
    return costs_.reentry_flag + costs_.tid_remap;
  }

 private:
  calib::MpvmCosts costs_;
};

/// The MPVM runtime for a PVM virtual machine.  Construct it once after
/// creating the PvmSystem (and before spawning tasks): it installs the
/// library shim and transparently links the flush/restart handlers into
/// every task.  Applications need only re-compilation — i.e. nothing here
/// touches application code.
class Mpvm {
 public:
  explicit Mpvm(pvm::PvmSystem& vm);
  Mpvm(const Mpvm&) = delete;
  Mpvm& operator=(const Mpvm&) = delete;

  [[nodiscard]] pvm::PvmSystem& vm() const noexcept { return *vm_; }

  /// Migrate the task with logical tid `victim` to `dst`.  Completes when
  /// the migration protocol finishes (end of the restart stage).  Throws
  /// MigrationError for unknown/exited tasks, a destination outside the
  /// virtual machine, or a migration-incompatible destination (§3.3).
  ///
  /// Run-time failures (a host crashing mid-protocol, a flush ack or the
  /// state transfer timing out, the skeleton failing to start) do NOT throw:
  /// the migration rolls back — the victim is re-adopted by the source CPU
  /// and peers' send gates reopen — and the returned stats have ok == false
  /// with the reason in `failure`.
  ///
  /// `epoch` stamps the command with the issuing scheduler's election term;
  /// when a fence is installed (set_fence) a stale epoch throws
  /// MigrationError before any protocol state is touched, so a deposed
  /// leader can never start a migration.
  ///
  /// `ctx` roots the migration's span tree under the caller's trace (a GS
  /// decision); an empty context starts a fresh trace.  The whole protocol —
  /// freeze/flush/transfer/restart, retries, rollbacks, fencing refusals —
  /// records as child spans of one "mpvm.migrate" span (DESIGN.md §10).
  [[nodiscard]] sim::Co<MigrationStats> migrate(
      pvm::Tid victim, os::Host& dst,
      std::optional<std::uint64_t> epoch = std::nullopt,
      obs::TraceContext ctx = {});

  /// Install the fencing token shared with the (replicated) scheduler.
  void set_fence(std::shared_ptr<pvm::MigrationFence> fence) noexcept {
    fence_ = std::move(fence);
  }
  [[nodiscard]] const std::shared_ptr<pvm::MigrationFence>& fence() const
      noexcept {
    return fence_;
  }

  /// True while `task` has a migration in progress.
  [[nodiscard]] bool migrating(pvm::Tid task) const {
    return pending_.find(task.raw()) != pending_.end();
  }

  [[nodiscard]] const std::vector<MigrationStats>& history() const noexcept {
    return history_;
  }

  // -- Failure handling ------------------------------------------------------
  void set_timeouts(MpvmTimeouts t) noexcept { timeouts_ = t; }
  [[nodiscard]] const MpvmTimeouts& timeouts() const noexcept {
    return timeouts_;
  }

  void set_tuning(MpvmTuning t) noexcept { tuning_ = t; }
  [[nodiscard]] const MpvmTuning& tuning() const noexcept { return tuning_; }

  /// Ask an in-flight migration of `victim` to abort at its next protocol
  /// checkpoint (flush wait or transfer chunk boundary); the abort then
  /// rides the normal rollback path.  Returns false when no migration of
  /// `victim` is pending or an abort was already requested.  The GS
  /// deadlock watchdog calls this for migrations stalled past deadline.
  bool request_abort(pvm::Tid victim, std::string reason);

  /// Stage observers fire synchronously as each protocol stage completes
  /// (fault injectors use this to crash hosts at precise protocol points).
  using StageObserver = std::function<void(pvm::Tid, MigrationStage)>;
  void add_stage_observer(StageObserver obs) {
    stage_observers_.push_back(std::move(obs));
  }

  /// Consulted after the skeleton fork+exec delay; returning false models a
  /// failed skeleton spawn (e.g. exec failure on the destination) and rolls
  /// the migration back.
  using SkeletonSpawnHook = std::function<bool(pvm::Tid, os::Host&)>;
  void set_skeleton_spawn_hook(SkeletonSpawnHook hook) {
    skeleton_spawn_hook_ = std::move(hook);
  }

 private:
  struct PendingFlush {
    int expected = 0;
    // Which flush round the acks must answer: an ack that raced in from a
    // *previous* migration of the same task (still on the wire when the
    // next protocol claims the slot) carries an older seq and is dropped.
    std::int32_t seq = 0;
    // Ackers by logical tid: duplicate acks (a re-sent flush answered twice)
    // must not count double.
    std::unordered_set<std::int32_t> acked;
    std::unique_ptr<sim::Trigger> all_acked;
    // Set once the freeze stage completes: a flush arriving for this task
    // finds it unable to run handlers (ack substitution kicks in).
    bool frozen = false;
    // Watchdog abort: checked at every protocol wait/chunk boundary.
    bool abort_requested = false;
    std::string abort_reason;

    [[nodiscard]] int received() const noexcept {
      return static_cast<int>(acked.size());
    }
  };

  /// Residual-forwarding record the old host's stub keeps after a restart:
  /// enough to trace forwards into the migration's span tree and to teach
  /// each stale sender the new mapping exactly once.
  struct Residual {
    obs::TraceContext ctx;
    pvm::Tid fresh{};
    std::uint64_t epoch = 0;
    sim::Time expires = 0;
    std::unordered_set<std::int32_t> updated;

    Residual() {}
  };

  void link_runtime_into(pvm::Task& t);
  void on_flush(pvm::Task& self, const pvm::Message& m);
  void on_flush_ack(const pvm::Message& m);
  void on_restart(pvm::Task& self, const pvm::Message& m);
  void on_abort(pvm::Task& self, const pvm::Message& m);
  void on_route_update(pvm::Task& self, const pvm::Message& m);
  void on_residual_forward(const pvm::Message& m, pvm::Task& t, pvm::Pvmd& at);

  void notify_stage(pvm::Tid task, MigrationStage stage);
  /// Roll back a migration that failed before the restart stage: re-adopt
  /// the frozen burst on the (live) source, reopen peers' send gates, and
  /// mark the stats failed.  Never throws.
  /// `mig_span`/`open_stage` close the migration's span tree: the open
  /// stage (if any) ends aborted, an "mpvm.rollback" child records the
  /// cleanup, and the migration span itself ends aborted.
  MigrationStats abort_migration(pvm::Task* t, pvm::Tid victim,
                                 const std::vector<pvm::Task*>& others,
                                 const std::shared_ptr<os::CpuJob>& burst,
                                 os::Host& src, MigrationStats stats,
                                 const std::string& reason,
                                 obs::SpanId mig_span = 0,
                                 obs::SpanId open_stage = 0);

  pvm::PvmSystem* vm_;
  /// Cached `mpvm.migrations.inflight` gauge (concurrent protocol windows;
  /// obs::Analytics tracks it as the concurrency series).
  obs::Gauge* inflight_gauge_ = nullptr;
  MpvmTimeouts timeouts_;
  MpvmTuning tuning_;
  // unique_ptr values: PendingFlush addresses must survive rehashing when
  // migrations run concurrently.
  std::unordered_map<std::int32_t, std::unique_ptr<PendingFlush>> pending_;
  std::unordered_map<std::int32_t, Residual> residuals_;
  std::vector<MigrationStats> history_;
  std::vector<StageObserver> stage_observers_;
  SkeletonSpawnHook skeleton_spawn_hook_;
  std::shared_ptr<pvm::MigrationFence> fence_;
  std::int32_t flush_seq_ = 0;  ///< stamps each migration's flush round
};

}  // namespace cpe::mpvm
