// The PVM task: the virtual processor of a PVM application, and the
// run-time-library context its program uses (pvm_send, pvm_recv, pvm_spawn,
// groups...).
//
// Identity: a task is born with a *logical* tid that never changes — it is
// what the application sees (pvm_mytid, spawn results, message sources).  Its
// *current* tid encodes where it physically runs and changes when MPVM
// migrates it; the library re-maps between the two on every send/receive,
// exactly as the paper describes (§4.1.1), and the re-mapping cost is charged
// through the installed LibraryShim.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/tcp.hpp"
#include "os/host.hpp"
#include "sim/channel.hpp"
#include "pvm/message.hpp"

namespace cpe::pvm {

class PvmSystem;
class Pvmd;
class Task;

/// A task program: the application code run by each VP.
using TaskMain = std::function<sim::Co<void>(Task&)>;

/// How long a receiving task holds out-of-order frames before declaring the
/// missing ones lost and skipping the gap (Task::accept).  Comfortably above
/// the transport's retransmission recovery (retry budget: 20 × 50 ms).
inline constexpr sim::Time kReorderGapTimeout = 2.0;

class Task {
 public:
  Task(PvmSystem& sys, Pvmd& pvmd, os::Process& proc, Tid tid, Tid parent,
       std::string program);
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  // -- Identity -------------------------------------------------------------
  /// The application-visible tid (pvm_mytid): stable across migrations.
  [[nodiscard]] Tid tid() const noexcept { return logical_; }
  /// The routing tid: changes when the task migrates.
  [[nodiscard]] Tid current_tid() const noexcept { return current_; }
  [[nodiscard]] Tid parent() const noexcept { return parent_; }
  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }
  [[nodiscard]] os::Process& process() const noexcept { return *proc_; }
  [[nodiscard]] Pvmd& pvmd() const noexcept { return *pvmd_; }
  [[nodiscard]] PvmSystem& system() const noexcept { return *sys_; }
  [[nodiscard]] bool exited() const noexcept { return exited_; }

  // -- Sending --------------------------------------------------------------
  /// pvm_initsend: clear the send buffer and set its encoding.
  Buffer& initsend(Encoding enc = Encoding::kDefault);
  /// The active send buffer (pack into this).
  [[nodiscard]] Buffer& sbuf();

  /// pvm_send: hand the send buffer to the transport.  Returns when the
  /// message is safely on its way (handed to the daemon), NOT when it is
  /// delivered — like the real call.  Blocks only when the destination is
  /// mid-migration (MPVM closes the send gate, §2.1 stage 2).
  [[nodiscard]] sim::Co<void> send(Tid dst, int tag);

  /// pvm_mcast: send the buffer to several tasks.
  [[nodiscard]] sim::Co<void> mcast(std::span<const Tid> dsts, int tag);

  // -- Receiving ------------------------------------------------------------
  /// pvm_recv: blocking receive; kAny wildcards.  Returns the message and
  /// loads its body into rbuf() for unpacking (a share of the payload with
  /// its own cursor, not a copy of the bytes).
  [[nodiscard]] sim::Co<Message> recv(std::int32_t src = kAny,
                                      std::int32_t tag = kAny);
  /// pvm_trecv: receive with timeout.
  [[nodiscard]] sim::Co<std::optional<Message>> trecv(std::int32_t src,
                                                      std::int32_t tag,
                                                      sim::Time timeout);
  /// pvm_nrecv: non-blocking receive.
  [[nodiscard]] std::optional<Message> nrecv(std::int32_t src,
                                             std::int32_t tag);
  /// pvm_probe.
  [[nodiscard]] bool probe(std::int32_t src, std::int32_t tag) const;
  /// The last received body (unpack from this).
  [[nodiscard]] Buffer& rbuf();

  // -- Process / VM services -------------------------------------------------
  /// pvm_spawn: start `count` copies of `program`; empty `where` means
  /// round-robin placement across the virtual machine.
  [[nodiscard]] sim::Co<std::vector<Tid>> spawn(const std::string& program,
                                                int count,
                                                const std::string& where = {});

  /// Application computation (not library time): `ref_seconds` of work on
  /// the reference machine, subject to this host's speed and load.
  [[nodiscard]] sim::Co<void> compute(double ref_seconds);

  /// pvm_setopt(PvmRoute, PvmRouteDirect): subsequent sends from this task
  /// to remote tasks travel a direct task-to-task TCP connection instead of
  /// hopping through the daemons — cheaper per byte, one connection per
  /// destination.  Sender-side option, like the real call.
  void set_direct_route(bool on) noexcept { direct_route_ = on; }
  [[nodiscard]] bool direct_route() const noexcept { return direct_route_; }

  /// pvm_tasks: logical tids of every live task in the virtual machine.
  [[nodiscard]] std::vector<Tid> tasks() const;
  /// pvm_config: number of hosts in the virtual machine.
  [[nodiscard]] std::size_t host_count() const;

  // -- Groups ---------------------------------------------------------------
  [[nodiscard]] sim::Co<int> joingroup(const std::string& group);
  [[nodiscard]] sim::Co<void> leavegroup(const std::string& group);
  [[nodiscard]] sim::Co<void> barrier(const std::string& group, int count);
  /// pvm_bcast: send sbuf() to every group member except the caller.
  [[nodiscard]] sim::Co<void> gbcast(const std::string& group, int tag);
  /// pvm_gettid: the member with instance number `inst` (invalid Tid when
  /// out of range).
  [[nodiscard]] Tid gettid(const std::string& group, int inst) const;
  /// pvm_getinst: this task's instance number in `group` (-1 if absent).
  [[nodiscard]] int getinst(const std::string& group) const;
  /// pvm_gsize.
  [[nodiscard]] std::size_t gsize(const std::string& group) const;

  /// pvm_reduce (sum over doubles): every member contributes `values`;
  /// the member with instance `root_inst` receives the element-wise sum in
  /// `values`, others' buffers are left as contributed.  All members must
  /// call with the same vector length and tag.
  [[nodiscard]] sim::Co<void> reduce_sum(const std::string& group,
                                         std::span<double> values, int tag,
                                         int root_inst = 0);

  // =====================================================================
  // Run-time internals (library level; applications do not call these).
  // =====================================================================

  [[nodiscard]] Mailbox& mailbox() noexcept { return mailbox_; }

  /// Senders block on this while `logical_dst` is being migrated.
  [[nodiscard]] sim::Gate& send_gate(Tid logical_dst);

  /// Library-level send used by the migration protocols: bypasses the
  /// application send buffer, the send gates, and CPU accounting (the cost
  /// is the caller's to model).  Travels the normal routed path so control
  /// messages stay FIFO with data messages.
  void runtime_send(Tid dst, int tag, Buffer body);
  /// Extended form: shared body plus a typed sidecar (Message::aux) whose
  /// on-wire size is `extra_bytes`.
  void runtime_send_ex(Tid dst, int tag, std::shared_ptr<const Buffer> body,
                       std::any aux, std::size_t extra_bytes);

  /// Library-level message handlers (MPVM flush/restart, UPVM transport).
  /// A message whose tag has a handler never reaches the mailbox.
  void set_control_handler(int tag, std::function<void(Message)> handler);
  /// Returns true when the message was consumed by a control handler.  A
  /// traced message's context is installed as the task's context for the
  /// handler's duration (and restored after), so replies — flush acks,
  /// transport acks — continue the originating trace.
  bool dispatch_control(const Message& m);

  /// Causal-tracing context (DESIGN.md §10).  Sends stamp it onto outgoing
  /// messages; a receive of a traced message adopts the sender's context,
  /// continuing its trace across hosts.  The migration protocols set it on
  /// the victim for the protocol's duration.
  [[nodiscard]] const obs::TraceContext& trace_context() const noexcept {
    return tctx_;
  }
  void set_trace_context(const obs::TraceContext& ctx) noexcept {
    tctx_ = ctx;
  }
  void clear_trace_context() noexcept { tctx_ = {}; }

  /// This task's view of where other tasks live (tid re-map table).
  /// `epoch` is the subject's migration epoch: a mapping older than what is
  /// already installed is rejected (returns false), so a late restart or
  /// route-update from a superseded migration cannot regress the table.
  bool learn_mapping(Tid logical, Tid current, std::uint64_t epoch = 0);
  [[nodiscard]] Tid translate(Tid logical) const;
  /// Migration epoch of the newest mapping installed for `logical` (0 when
  /// none has been learned).
  [[nodiscard]] std::uint64_t mapping_epoch(Tid logical) const;

  /// Correspondent set (MPVM scoped flush): logical tids this task has
  /// exchanged *application* messages with, recorded in both directions by
  /// PvmSystem::route.  Control traffic is excluded — a flush round must
  /// not inflate the very set it targets.
  void note_peer(Tid logical) {
    if (logical != logical_) peers_.insert(logical.raw());
  }
  [[nodiscard]] const std::unordered_set<std::int32_t>& peers()
      const noexcept {
    return peers_;
  }

  /// Routing identity update (migration).  Library use only.
  void set_current_tid(Tid t) noexcept { current_ = t; }
  void set_pvmd(Pvmd& d) noexcept { pvmd_ = &d; }

  /// Marks the task exited and fires exit waiters (set by the system when
  /// the program coroutine completes).
  void mark_exited();
  [[nodiscard]] sim::Trigger& exit_trigger() noexcept { return exited_trig_; }

  /// Messages sent per destination (sequence numbers; invariant checks).
  [[nodiscard]] std::uint64_t sends_to(Tid logical) const;

  /// Receiver-side sequencing (DESIGN.md §7): the delivery entry point used
  /// by the daemon dispatch and the direct-route pump instead of pushing
  /// straight into the mailbox.  Per-sender streams dedup replayed frames
  /// (an adversarial duplicate, or a residual-forwarded copy racing the
  /// original) and hold early frames until the gap fills, restoring the
  /// per-pair FIFO the flush protocol assumes.  A gap that never fills
  /// (the sender's daemon gave up on the missing frame) is skipped after
  /// kReorderGapTimeout so the pair cannot stall forever.
  /// Unsequenced frames (seq 0) bypass the window.
  void accept(Message m);
  /// Held-back out-of-order frames across all senders (tests/invariants).
  [[nodiscard]] std::size_t held_messages() const noexcept {
    std::size_t n = 0;
    for (const auto& [src, w] : inbox_) n += w.pending.size();
    return n;
  }

  /// Route a message over this task's direct connection to `m.dst`,
  /// creating the connection (and its pump) on first use.  Library level;
  /// called by PvmSystem::route when the direct-route option is set.
  void direct_send(Message m);

 private:
  struct DirectLink {
    explicit DirectLink(sim::Engine& eng) : queue(eng) {}
    sim::Channel<Message> queue;
    std::shared_ptr<net::TcpStream> stream;
    net::NodeId src_node = 0;
    net::NodeId dst_node = 0;
    sim::ProcHandle pump;
  };
  [[nodiscard]] static sim::Co<void> direct_pump(Task* self, DirectLink* link,
                                                 Tid dst_logical);

  /// One per-sender reassembly window.  `next` is the next expected seq;
  /// frames beyond it wait in `pending` until the gap fills, the gap timer
  /// (armed at `gap_deadline`) declares the missing frames lost, or the
  /// window hits PvmTuning::reorder_window_cap and is force-drained (a peer
  /// that never fills a gap must not grow this buffer without bound).
  struct SeqWindow {
    std::uint64_t next = 1;
    std::map<std::uint64_t, Message> pending;
    sim::Time gap_deadline = 0;  ///< 0 = no timer armed
  };
  /// Deliver a frame for real: trace the delivery, run control handlers,
  /// else push to the mailbox.
  void release(Message m);
  /// Release consecutive frames now available in `src_raw`'s window `w`
  /// and manage its gap timer.
  void drain_ready(std::int32_t src_raw, SeqWindow& w);
  void arm_gap_timer(std::int32_t src_raw, SeqWindow& w);
  void on_gap_timeout(std::int32_t src_raw);
  /// Give up on the gap in `src_raw`'s window `w` now: advance `next` to
  /// the oldest held frame and drain (gap timeout and window-cap eviction).
  void skip_gap(std::int32_t src_raw, SeqWindow& w);

  PvmSystem* sys_;
  Pvmd* pvmd_;
  os::Process* proc_;
  Tid logical_;
  Tid current_;
  Tid parent_;
  std::string program_;
  bool exited_ = false;
  sim::Trigger exited_trig_;

  Mailbox mailbox_;
  obs::TraceContext tctx_;
  std::unique_ptr<Buffer> sbuf_;
  std::unique_ptr<Buffer> rbuf_;
  bool direct_route_ = false;
  std::unordered_map<std::int32_t, std::unique_ptr<DirectLink>> links_;
  std::unordered_map<std::int32_t, std::unique_ptr<sim::Gate>> gates_;
  std::vector<std::pair<int, std::function<void(Message)>>> control_;
  std::unordered_map<std::int32_t, std::int32_t> tid_map_;
  std::unordered_map<std::int32_t, std::uint64_t> map_epoch_;
  std::unordered_set<std::int32_t> peers_;
  std::unordered_map<std::int32_t, std::uint64_t> next_seq_;
  /// Never erased from, so a window held across release() stays valid.
  std::unordered_map<std::int32_t, SeqWindow> inbox_;
};

}  // namespace cpe::pvm
