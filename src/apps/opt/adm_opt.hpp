// ADMopt: the Adaptive-Data-Movement version of Opt (paper §2.3, §4.3).
//
// Unlike MPVM/UPVM, ADM is an application-level methodology: the program
// itself is rewritten as an event-driven finite-state machine (Figure 4)
// whose states are computing / redistributing / inactive / done.  Work moves
// as *data*: when the global scheduler signals a withdraw, the affected
// slave's exemplars are re-partitioned onto the remaining slaves — at
// single-exemplar precision, across architectures, with nothing resembling
// process state ever migrating.
//
// Faithful details implemented here:
//  * the inner compute loop runs in chunks, checking the migration-event
//    flag between chunks (the "rapid response" requirement, whose cost is
//    the §4.3.1 overhead);
//  * a processed-flags array travels with redistributed exemplars so no
//    exemplar is reprocessed within an epoch;
//  * redistribution does not preserve exemplar ordering (§4.3: it affects
//    neither correctness nor performance), letting a withdrawing slave's
//    data be fragmented over several receivers;
//  * the master counts per-gradient processed-exemplar totals, so an epoch
//    completes correctly through any interleaving of redistributions;
//  * multiple queued events are handled in arrival order, none lost.
//
// Obtrusiveness (§4.3.2) is measured from event delivery at the withdrawing
// slave to its receipt of the master's resume ("all slaves have finished
// redistribution"); for ADM migration cost equals obtrusiveness (§4.3.3).
#pragma once

#include <optional>

#include "adm/events.hpp"
#include "adm/fsm.hpp"
#include "adm/partition.hpp"
#include "apps/opt/kernel.hpp"
#include "apps/opt/opt_app.hpp"
#include "pvm/fence.hpp"

namespace cpe::opt {

inline constexpr int kTagRedistReq = 110;   ///< slave -> master: event seen
inline constexpr int kTagRepart = 111;      ///< master -> slaves: new shares
inline constexpr int kTagMove = 112;        ///< slave -> slave: exemplars
inline constexpr int kTagMoveDone = 113;    ///< slave -> master: moves done
inline constexpr int kTagResume = 114;      ///< master -> slaves: go on
inline constexpr int kTagFinalReport = 115; ///< slave -> master: checksum
inline constexpr int kTagEventNotify = 116; ///< self: wake a blocked recv
inline constexpr int kTagSlaveLost = 117;   ///< pvm_notify: a slave exited

/// A kTagMove body: an exemplar batch with its processed flags (they must
/// travel, or a receiver would reprocess work already counted — §4.3.1).
/// The batch's wire image is packed by reference, and the receiver's batch
/// adopts the unpacked view of it.
void pack_move(pvm::Buffer& b, const ExemplarSet& batch);
[[nodiscard]] ExemplarSet unpack_move(pvm::Buffer& b);

/// One completed ADM redistribution, as seen by the slave that triggered it.
struct AdmRedistStats {
  int slave = -1;
  adm::AdmEventKind kind = adm::AdmEventKind::kWithdraw;
  sim::Time event_time = 0;   ///< signal delivered to the slave
  sim::Time resume_time = 0;  ///< master's all-finished message received

  /// For ADM, obtrusiveness and migration cost coincide (§4.3.3).
  [[nodiscard]] sim::Time migration_time() const {
    return resume_time - event_time;
  }
};

struct AdmOptConfig {
  OptConfig opt{};
  /// Exemplars processed between event-flag checks.  Smaller = more
  /// responsive, more overhead.
  std::size_t chunk_items = 512;
  /// Optional per-slave capacity weights for repartitioning (empty = equal
  /// among active slaves).  Used by the granularity ablation (A2) and the
  /// heterogeneous_adm example.
  std::vector<double> partition_weights{};
};

class AdmOpt {
 public:
  AdmOpt(pvm::PvmSystem& vm, AdmOptConfig cfg);
  AdmOpt(const AdmOpt&) = delete;
  AdmOpt& operator=(const AdmOpt&) = delete;

  [[nodiscard]] sim::Co<OptResult> run();

  [[nodiscard]] int nslaves() const noexcept { return cfg_.opt.nslaves; }
  /// Slaves spawned so far (slave_tid is valid below this).
  [[nodiscard]] int slaves_spawned() const noexcept {
    return static_cast<int>(slave_tids_.size());
  }
  [[nodiscard]] pvm::Tid master_tid() const noexcept { return master_tid_; }
  [[nodiscard]] pvm::Tid slave_tid(int i) const {
    CPE_EXPECTS(i >= 0 && i < static_cast<int>(slave_tids_.size()));
    return slave_tids_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] sim::Trigger& slaves_ready() noexcept {
    return slaves_ready_;
  }
  [[nodiscard]] bool slaves_are_ready() const noexcept {
    return slaves_ready_count_ >= cfg_.opt.nslaves;
  }

  /// Post a migration event to slave `i` (what the global scheduler does).
  /// `epoch` stamps the command with the issuing scheduler's election term;
  /// with a fence installed, a stale epoch is refused and post_event returns
  /// false without posting anything.  Returns true when the event was posted.
  ///
  /// `ctx` links the event — and the redistribution it triggers — into the
  /// caller's trace: the master task inherits the context, so the
  /// "adm.repartition"/"adm.consensus" spans and the slaves' rejoin events
  /// all share one causal tree (DESIGN.md §10).
  bool post_event(int slave, adm::AdmEventKind kind,
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

  [[nodiscard]] const std::vector<AdmRedistStats>& redistributions()
      const noexcept {
    return history_;
  }
  /// Sum of the slaves' final exemplar checksums (order-insensitive):
  /// equals OptResult::data_checksum when no data was lost or duplicated.
  [[nodiscard]] std::uint64_t final_data_checksum() const noexcept {
    return final_checksum_;
  }
  [[nodiscard]] std::size_t final_item_count() const noexcept {
    return final_items_;
  }

  /// Crash degradation: slaves lost to host crashes (implicit withdraw) and
  /// the exemplars that died with them.  The run completes on the survivors
  /// with a correspondingly smaller epoch.
  [[nodiscard]] bool slave_lost(int i) const {
    CPE_EXPECTS(i >= 0 && i < static_cast<int>(lost_.size()));
    return lost_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::size_t lost_item_count() const noexcept {
    return lost_items_;
  }

 private:
  [[nodiscard]] sim::Co<void> master_main(pvm::Task& t);
  [[nodiscard]] sim::Co<void> slave_main(pvm::Task& t, int me);
  [[nodiscard]] sim::Co<void> redistribute(pvm::Task& master,
                                           std::vector<std::size_t>& counts,
                                           const Network& net);
  [[nodiscard]] sim::Co<void> do_moves(pvm::Task& t, int me,
                                       ExemplarSet& mine,
                                       std::span<const std::size_t> current,
                                       std::span<const std::size_t> target);
  [[nodiscard]] std::vector<std::size_t> compute_targets(
      std::size_t total) const;

  pvm::PvmSystem* vm_;
  AdmOptConfig cfg_;
  GradientKernel kernel_;
  pvm::Tid master_tid_{};
  std::vector<pvm::Tid> slave_tids_;
  int slaves_ready_count_ = 0;
  sim::Trigger slaves_ready_;
  std::vector<bool> active_;
  std::vector<bool> lost_;
  std::size_t lost_items_ = 0;
  OptResult result_;
  sim::Trigger finished_;
  bool done_ = false;
  std::vector<AdmRedistStats> history_;
  std::uint64_t final_checksum_ = 0;
  std::size_t final_items_ = 0;
  std::shared_ptr<pvm::MigrationFence> fence_;
};

}  // namespace cpe::opt
