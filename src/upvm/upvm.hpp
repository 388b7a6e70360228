// UPVM: light-weight, independently migratable virtual processors
// (User-Level Processes, ULPs) for SPMD PVM applications (paper §2.2, §4.2).
//
// Architecture: one *container process* (a regular PVM task running the UPVM
// run-time) per host; many ULPs per container.  A ULP is thread-like — its
// own register context and stack, scheduled cooperatively by the library —
// but process-like in owning private data and heap.  Each ULP is bound to a
// globally unique virtual-address region (see AddressSpaceMap), which is
// what makes its state trivially relocatable.
//
// Messaging: ULP-to-ULP by instance number.  Within a container the library
// hands the buffer pointer over (no copy, §4.2.1); across containers the
// message rides regular PVM transport with a small extra ULP header (which
// is why UPVM's remote path is marginally slower than MPVM's).
//
// Migration (Figure 3): the GS message goes directly to the container
// process; the ULP's context is captured mid-burst; a flush round with every
// container redirects *future* messages to the destination immediately (no
// sender blocking, unlike MPVM); the state moves via pvm_pkbyte/pvm_send;
// and the destination's accept path places it and re-queues the ULP.  The
// paper's accept implementation is notoriously slow (6.88 s vs 1.67 s
// obtrusiveness at 0.6 MB) — both it and the optimized variant the authors
// promise are implemented here (select with UpvmOptions::optimized_accept).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "pvm/fence.hpp"
#include "pvm/system.hpp"
#include "upvm/address_map.hpp"

namespace cpe::upvm {

class Upvm;
class UlpProcess;
class Ulp;

/// The SPMD program every ULP runs.
using UlpMain = std::function<sim::Co<void>(Ulp&)>;

/// Tags used by the UPVM runtime on the underlying PVM transport.
inline constexpr int kTagUlpMsg = pvm::kControlTagBase + 16;
inline constexpr int kTagUlpFlush = pvm::kControlTagBase + 17;
inline constexpr int kTagUlpFlushAck = pvm::kControlTagBase + 18;
inline constexpr int kTagUlpState = pvm::kControlTagBase + 19;
inline constexpr int kTagUlpBuffers = pvm::kControlTagBase + 20;

struct UpvmOptions {
  std::size_t va_budget = 768ull * 1024 * 1024;  ///< 32-bit era budget
  std::size_t region_size = 16ull * 1024 * 1024;
  bool optimized_accept = false;  ///< the §4.2.3 fix (ablation A4)
  /// Disable the intra-process buffer hand-off and pay the regular local
  /// pvmd route instead — quantifies the §4.2.1 optimization (ablation A3).
  bool disable_local_handoff = false;
  /// DPC-style restriction (paper §5.0): a ULP may only migrate at the
  /// boundaries of its compute segments (yield/recv points) instead of
  /// being interrupted mid-burst.  Costs responsiveness; ablation A9.
  bool migrate_at_safe_points_only = false;
};

/// Timing of one ULP migration (Figure 3 / Table 4 reproduction).
struct UlpMigrationStats {
  int ulp = -1;
  std::string from_host;
  std::string to_host;
  std::size_t state_bytes = 0;
  bool ok = true;
  std::string failure;  ///< empty when ok; aborted moves are not in history()

  sim::Time event_time = 0;     ///< migrate order at the container
  sim::Time captured_time = 0;  ///< context captured, ULP off the run queue
  sim::Time flush_done = 0;     ///< all containers redirected + acked
  sim::Time offload_done = 0;   ///< state handed off the source host
  sim::Time accept_done = 0;    ///< placed + back on a scheduler queue

  [[nodiscard]] sim::Time obtrusiveness() const {
    return offload_done - event_time;
  }
  [[nodiscard]] sim::Time migration_time() const {
    return accept_done - event_time;
  }
};

/// One User-Level Process.
class Ulp {
 public:
  Ulp(Upvm& sys, int inst, VaRegion region);
  Ulp(const Ulp&) = delete;
  Ulp& operator=(const Ulp&) = delete;

  [[nodiscard]] int inst() const noexcept { return inst_; }
  [[nodiscard]] int nulps() const noexcept;
  [[nodiscard]] const VaRegion& region() const noexcept { return region_; }
  [[nodiscard]] UlpProcess& container() const noexcept { return *container_; }
  [[nodiscard]] os::Host& host() const noexcept;
  [[nodiscard]] bool done() const noexcept { return done_; }

  // -- ULP-private memory ----------------------------------------------------
  /// Sizes must fit the reserved VA region.
  void set_data_bytes(std::size_t n);
  void set_heap_bytes(std::size_t n);
  [[nodiscard]] std::size_t image_bytes() const noexcept {
    return data_bytes_ + heap_bytes_ + stack_bytes_ + context_bytes_;
  }

  // -- Messaging (the PVM-like interface the SPMD program uses) --------------
  pvm::Buffer& initsend(pvm::Encoding enc = pvm::Encoding::kDefault);
  [[nodiscard]] pvm::Buffer& sbuf();
  [[nodiscard]] sim::Co<void> send(int dst_inst, int tag);
  [[nodiscard]] sim::Co<pvm::Message> recv(int src_inst = -1, int tag = -1);
  [[nodiscard]] std::optional<pvm::Message> nrecv(int src_inst, int tag);
  [[nodiscard]] pvm::Buffer& rbuf();

  // -- Computation -------------------------------------------------------------
  /// Consume `ref_seconds` of CPU.  Cooperative: the ULP holds its
  /// container's processor while computing, and the burst can be frozen and
  /// moved to another host mid-way by a migration.
  [[nodiscard]] sim::Co<void> compute(double ref_seconds);

  /// Yield the processor to another runnable ULP (cooperative scheduling).
  [[nodiscard]] sim::Co<void> yield();

 private:
  friend class Upvm;
  friend class UlpProcess;

  struct BurstAwait;

  /// Freeze whatever the ULP is doing (migration stage 1): close the
  /// runnable gate and interrupt an in-flight compute burst, saving its
  /// remaining work.
  void freeze();
  /// DPC-style freeze: close the gate but let an in-flight burst run to its
  /// natural end (migration only at segment boundaries, §5.0).
  [[nodiscard]] sim::Co<void> freeze_at_safe_point();
  /// Resume at the (possibly new) container.
  void thaw();

  Upvm* sys_;
  int inst_;
  VaRegion region_;
  UlpProcess* container_ = nullptr;
  bool done_ = false;

  std::size_t data_bytes_ = 0;
  std::size_t heap_bytes_ = 0;
  std::size_t stack_bytes_ = 64 * 1024;
  std::size_t context_bytes_ = 512;

  pvm::Mailbox mailbox_;
  std::unique_ptr<pvm::Buffer> sbuf_;
  std::unique_ptr<pvm::Buffer> rbuf_;
  std::unordered_map<int, std::uint64_t> next_seq_;

  sim::Gate runnable_gate_;
  sim::Trigger burst_done_;
  double pending_work_ = 0;
  std::shared_ptr<os::CpuJob> burst_;
  BurstAwait* active_burst_await_ = nullptr;
  sim::ProcHandle main_;
};

/// The UPVM container process on one host: a PVM task whose run-time
/// schedules resident ULPs and dispatches their remote messages.
class UlpProcess {
 public:
  UlpProcess(Upvm& sys, pvm::Task& task);

  [[nodiscard]] pvm::Task& task() const noexcept { return *task_; }
  [[nodiscard]] os::Host& host() const noexcept {
    return task_->pvmd().host();
  }
  [[nodiscard]] Upvm& system() const noexcept { return *sys_; }

  /// The "one running ULP at a time" token (cooperative user-level
  /// scheduling within the container).
  [[nodiscard]] sim::Semaphore& cpu_token() noexcept { return cpu_token_; }

  [[nodiscard]] std::size_t resident_ulps() const noexcept {
    return residents_;
  }

 private:
  friend class Upvm;
  Upvm* sys_;
  pvm::Task* task_;
  sim::Semaphore cpu_token_;
  std::size_t residents_ = 0;
};

class Upvm {
 public:
  /// Attach UPVM to a PVM virtual machine.  One container is started per
  /// host currently in the VM.
  explicit Upvm(pvm::PvmSystem& vm, UpvmOptions options = {});
  ~Upvm();
  Upvm(const Upvm&) = delete;
  Upvm& operator=(const Upvm&) = delete;

  [[nodiscard]] pvm::PvmSystem& vm() const noexcept { return *vm_; }
  [[nodiscard]] const UpvmOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] AddressSpaceMap& address_map() noexcept { return va_map_; }

  /// Start the containers.  Must complete before run_spmd.
  [[nodiscard]] sim::Co<void> start();

  /// SPMD launch (the only style UPVM supports, §3.2.2): `nulps` ULPs all
  /// running `main`, placed round-robin across containers.
  std::vector<Ulp*> run_spmd(UlpMain main, int nulps);

  [[nodiscard]] Ulp* ulp(int inst) const;
  [[nodiscard]] int nulps() const noexcept {
    return static_cast<int>(ulps_.size());
  }
  [[nodiscard]] const std::vector<std::unique_ptr<UlpProcess>>& containers()
      const noexcept {
    return containers_;
  }

  /// Wait for every ULP main to finish.
  [[nodiscard]] sim::Co<void> wait_all_ulps();

  /// Release the container tasks (they exit their PVM programs).  Call
  /// after the SPMD application is done to let the virtual machine drain.
  void shutdown() { shutdown_.open(); }

  /// Migrate one ULP to the container on `dst` (Figure 3's protocol).
  /// Run-time failures (a crashed destination, a flush or accept timeout) do
  /// not throw: the move is aborted, the ULP stays runnable at the source,
  /// and the returned stats carry ok == false with the reason.
  ///
  /// `epoch` stamps the command with the issuing scheduler's election term;
  /// when a fence is installed (set_fence) a stale epoch throws Error
  /// before the ULP is touched, so a deposed leader can never start a move.
  ///
  /// `ctx` roots the move's span tree under the caller's trace; the whole
  /// protocol — capture/flush/offload/accept, aborts, fencing refusals —
  /// records as children of one "upvm.migrate" span (DESIGN.md §10).
  [[nodiscard]] sim::Co<UlpMigrationStats> migrate_ulp(
      int inst, os::Host& dst,
      std::optional<std::uint64_t> epoch = std::nullopt,
      obs::TraceContext ctx = {});

  /// True while `inst` has a migration in progress.
  [[nodiscard]] bool migrating(int inst) const {
    return pending_.find(inst) != pending_.end();
  }

  /// Install the fencing token shared with the (replicated) scheduler.
  void set_fence(std::shared_ptr<pvm::MigrationFence> fence) noexcept {
    fence_ = std::move(fence);
  }
  [[nodiscard]] const std::shared_ptr<pvm::MigrationFence>& fence() const
      noexcept {
    return fence_;
  }

  [[nodiscard]] const std::vector<UlpMigrationStats>& history()
      const noexcept {
    return history_;
  }

  /// Render Figure 2: ULP regions and current residency.
  [[nodiscard]] std::string format_address_map() const;

 private:
  friend class Ulp;

  [[nodiscard]] UlpProcess* container_on(const os::Host& host) const;
  void dispatch_transport(UlpProcess& at, const pvm::Message& m);
  void on_ulp_done();
  /// Publish `c`'s run-queue depth to the upvm.runqueue.<host> gauge.
  void note_runqueue(const UlpProcess& c);
  /// Publish live/carved VA-region counts to the upvm.va.* gauges.
  void note_va_usage();

  /// Route a ULP-level message: local hand-off or remote PVM transport.
  [[nodiscard]] sim::Co<void> route_ulp(Ulp& from, int dst_inst, int tag,
                                        std::shared_ptr<const pvm::Buffer> b,
                                        std::uint64_t seq);

  pvm::PvmSystem* vm_;
  UpvmOptions options_;
  AddressSpaceMap va_map_;
  std::vector<std::unique_ptr<UlpProcess>> containers_;
  std::vector<std::unique_ptr<Ulp>> ulps_;
  UlpMain spmd_main_;
  int ulps_done_ = 0;
  sim::Trigger all_done_;
  sim::Gate shutdown_;
  std::vector<UlpMigrationStats> history_;

  struct PendingFlush {
    int expected = 0;
    int received = 0;
    std::unique_ptr<sim::Trigger> all_acked;
  };
  std::unordered_map<int, std::unique_ptr<PendingFlush>> pending_;
  std::shared_ptr<pvm::MigrationFence> fence_;
};

/// Header riding along remote ULP messages (costed via Message::extra_bytes).
struct UlpHeader {
  int src_inst = -1;
  int dst_inst = -1;
  int tag = 0;
  std::uint64_t seq = 0;

  UlpHeader() = default;
  UlpHeader(int s, int d, int t, std::uint64_t q)
      : src_inst(s), dst_inst(d), tag(t), seq(q) {}
};

}  // namespace cpe::upvm
