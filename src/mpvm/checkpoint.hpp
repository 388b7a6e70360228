// Condor-style checkpoint/restart, the alternative the paper's related-work
// section weighs against MPVM's migrate-current-state policy (§5.0):
//
//   "[Condor] advocates checkpoint-based process migration ... While the
//    checkpoint approach makes migration less obtrusive, there is a cost of
//    taking periodic checkpoints, and there is a file I/O 'idempotency'
//    restriction placed on the application since any part of the computation
//    may be executed more than once."
//
// Implemented here for PVM tasks so the trade-off can be measured
// (bench_ablation_checkpoint):
//  * a watched task is periodically frozen while its memory image streams
//    to a checkpoint server over the shared Ethernet — the recurring cost;
//  * vacating is near-instant (deliver the kill, the work is off the host:
//    minimal obtrusiveness — Condor's selling point);
//  * restart fetches the last checkpoint on the destination and *re-executes
//    the work done since it was taken* — the lost-work term, charged to the
//    revived compute burst.
//
// Modelling notes (documented simplifications): re-execution is charged as
// time against the current compute burst — data-flow effects are not
// rewound, which is safe for Opt-style idempotent computation and is exactly
// the restriction Condor imposes.  Messages delivered between kill and
// restart wait in the task's mailbox (a real system needs message logging or
// loses them — part of why the paper chose migrate-current-state for PVM).
#pragma once

#include "mpvm/mpvm.hpp"
#include "pvm/fence.hpp"
#include "pvm/system.hpp"

namespace cpe::mpvm {

struct CheckpointOptions {
  sim::Time interval = 60.0;
};

struct CheckpointStats {
  pvm::Tid task{};
  int checkpoints_taken = 0;
  sim::Time total_checkpoint_time = 0;  ///< task frozen while writing
  sim::Time last_checkpoint_at = 0;
};

struct CkptVacateStats {
  pvm::Tid task{};
  std::string from_host;
  std::string to_host;
  std::size_t image_bytes = 0;
  double redo_work = 0;  ///< re-executed reference-seconds (lost work)

  sim::Time event_time = 0;
  sim::Time killed_time = 0;   ///< work off the source host (obtrusiveness)
  sim::Time restart_done = 0;  ///< fetched + re-enrolled at the destination

  [[nodiscard]] sim::Time obtrusiveness() const {
    return killed_time - event_time;
  }
  [[nodiscard]] sim::Time migration_time() const {
    return restart_done - event_time;
  }
};

/// Periodic checkpointing of PVM tasks to a checkpoint-server host, plus
/// kill-and-restart vacating.
class Checkpointer {
 public:
  /// `server` is the workstation holding the checkpoint files.
  Checkpointer(pvm::PvmSystem& vm, os::Host& server,
               CheckpointOptions options = {});
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Begin periodic checkpoints of `task`.  A watched task also becomes
  /// crash-recoverable: a host crash strands it instead of killing it, and
  /// recover() restarts it elsewhere from the last checkpoint.
  void watch(pvm::Tid task);
  [[nodiscard]] bool watches(pvm::Tid task) const {
    return watches_.find(task.raw()) != watches_.end();
  }

  /// Vacate `task` from its host by killing it immediately, then restart it
  /// on `dst` from the most recent checkpoint.
  [[nodiscard]] sim::Co<CkptVacateStats> vacate_restart(pvm::Tid task,
                                                        os::Host& dst);

  /// Restart a task stranded by a host crash on `dst` from its last
  /// checkpoint.  Like vacate_restart without the kill stage: the crash
  /// already stopped the task.  Work since the last checkpoint is
  /// re-executed (redo_work); messages that raced the crash are lost.
  ///
  /// `epoch` stamps the command with the issuing scheduler's election term;
  /// when a fence is installed (set_fence) a stale epoch throws before any
  /// state is touched, so a deposed leader can never resurrect a task its
  /// successor already owns.  At most one recovery per task may be in
  /// flight at a time (the others throw), so two leaders racing through a
  /// failover can never double-resurrect.
  ///
  /// `ctx` parents the "ckpt.recover" span under the caller's trace (a GS
  /// recovery decision); fenced refusals and aborted fetches record with
  /// failure status (DESIGN.md §10).
  [[nodiscard]] sim::Co<CkptVacateStats> recover(
      pvm::Tid task, os::Host& dst,
      std::optional<std::uint64_t> epoch = std::nullopt,
      obs::TraceContext ctx = {});

  /// Install the fencing token shared with the (replicated) scheduler.
  void set_fence(std::shared_ptr<pvm::MigrationFence> fence) noexcept {
    fence_ = std::move(fence);
  }
  [[nodiscard]] const std::shared_ptr<pvm::MigrationFence>& fence()
      const noexcept {
    return fence_;
  }

  /// True while a recover() of `task` is still in flight.
  [[nodiscard]] bool recovering(pvm::Tid task) const {
    return recovering_.find(task.raw()) != recovering_.end();
  }

  [[nodiscard]] const CheckpointStats* stats_for(pvm::Tid task) const;
  [[nodiscard]] const std::vector<CkptVacateStats>& vacate_history()
      const noexcept {
    return history_;
  }

 private:
  struct Watch {
    CheckpointStats stats;
    /// The compute burst that was live at the last checkpoint, and how much
    /// service it had consumed then — the baseline for lost-work accounting.
    std::weak_ptr<os::CpuJob> burst_at_ckpt;
    double consumed_at_ckpt = 0;
    sim::ProcHandle loop;
  };

  [[nodiscard]] sim::Co<void> checkpoint_loop(pvm::Tid task, Watch* w);
  [[nodiscard]] sim::Co<void> write_checkpoint(pvm::Task& t, Watch& w);
  /// The restart both paths end in once the image is on `dst`: charge the
  /// work since `w`'s checkpoint to `burst`, move the process off `src`,
  /// re-enroll and announce it, resume the burst, and record `stats`.
  void restart(pvm::Task& t, const Watch& w, os::Host& src, os::Host& dst,
               const std::shared_ptr<os::CpuJob>& burst,
               CkptVacateStats& stats);

  pvm::PvmSystem* vm_;
  os::Host* server_;
  CheckpointOptions options_;
  std::unordered_map<std::int32_t, std::unique_ptr<Watch>> watches_;
  std::vector<CkptVacateStats> history_;
  std::shared_ptr<pvm::MigrationFence> fence_;
  std::unordered_set<std::int32_t> recovering_;
};

}  // namespace cpe::mpvm
