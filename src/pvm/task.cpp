#include "pvm/task.hpp"

#include "pvm/system.hpp"

namespace cpe::pvm {

namespace {
/// Relative encoder cost: XDR swaps every word; raw is a straight copy;
/// in-place defers the copy to the transport write.
double encoding_cost_factor(Encoding e) {
  switch (e) {
    case Encoding::kDefault: return 1.0;
    case Encoding::kRaw: return 0.5;
    case Encoding::kInPlace: return 0.15;
  }
  return 1.0;
}
}  // namespace

Task::Task(PvmSystem& sys, Pvmd& pvmd, os::Process& proc, Tid tid, Tid parent,
           std::string program)
    : sys_(&sys),
      pvmd_(&pvmd),
      proc_(&proc),
      logical_(tid),
      current_(tid),
      parent_(parent),
      program_(std::move(program)),
      exited_trig_(sys.engine()),
      mailbox_(sys.engine()) {}

Buffer& Task::initsend(Encoding enc) {
  sbuf_ = std::make_unique<Buffer>(enc);
  return *sbuf_;
}

Buffer& Task::sbuf() {
  CPE_EXPECTS(sbuf_ != nullptr);  // pvm_initsend first (PvmNoBuf otherwise)
  return *sbuf_;
}

sim::Co<void> Task::send(Tid dst, int tag) {
  CPE_EXPECTS(sbuf_ != nullptr);
  CPE_EXPECTS(dst.valid());
  const auto& c = sys_->costs().pvm;

  // The buffer leaves the application now; a fresh one replaces it so the
  // program can immediately repack (pvm semantics).
  auto body = std::make_shared<const Buffer>(std::move(*sbuf_));
  sbuf_ = std::make_unique<Buffer>(body->encoding());

  sim::Time cpu = c.call_overhead + c.send_fixed +
                  static_cast<double>(body->bytes()) * 8.0 / c.pack_bps *
                      encoding_cost_factor(body->encoding());
  if (sys_->is_local(*this, dst))
    cpu += c.local_send_cpu +
           static_cast<double>(body->bytes()) * 8.0 / c.local_route_bps;
  if (const LibraryShim* shim = sys_->shim())
    cpu += shim->send_overhead(*this);
  {
    auto guard = proc_->enter_library();
    co_await proc_->compute(cpu);
  }

  // MPVM stage 2: while `dst` is being migrated this gate is closed and the
  // send blocks.  Deliberately *outside* the library guard: a blocked sender
  // must itself remain migratable.
  co_await send_gate(dst).wait();

  // Pre-increment: sequence numbers start at 1, leaving seq 0 as the
  // unsequenced sentinel for daemon-forged frames (Task::accept).
  Message m(logical_, dst, tag, std::move(body), ++next_seq_[dst.raw()]);
  sys_->route(*this, std::move(m));
}

sim::Co<void> Task::mcast(std::span<const Tid> dsts, int tag) {
  CPE_EXPECTS(sbuf_ != nullptr);
  const auto& c = sys_->costs().pvm;
  auto body = std::make_shared<const Buffer>(std::move(*sbuf_));
  sbuf_ = std::make_unique<Buffer>(body->encoding());

  // Pack once; per-destination fixed cost (plus the sender-side socket
  // copy for each local destination).
  sim::Time cpu = c.call_overhead +
                  static_cast<double>(body->bytes()) * 8.0 / c.pack_bps *
                      encoding_cost_factor(body->encoding()) +
                  c.send_fixed * static_cast<double>(dsts.size());
  for (Tid dst : dsts)
    if (sys_->is_local(*this, dst))
      cpu += c.local_send_cpu +
             static_cast<double>(body->bytes()) * 8.0 / c.local_route_bps;
  if (const LibraryShim* shim = sys_->shim())
    cpu += shim->send_overhead(*this) * static_cast<double>(dsts.size());
  {
    auto guard = proc_->enter_library();
    co_await proc_->compute(cpu);
  }
  for (Tid dst : dsts) {
    CPE_EXPECTS(dst.valid());
    co_await send_gate(dst).wait();
    Message m(logical_, dst, tag, body, ++next_seq_[dst.raw()]);
    sys_->route(*this, std::move(m));
  }
}

sim::Co<Message> Task::recv(std::int32_t src, std::int32_t tag) {
  const auto& c = sys_->costs().pvm;
  sim::Time cpu = c.call_overhead + c.recv_fixed;
  if (const LibraryShim* shim = sys_->shim())
    cpu += shim->recv_overhead(*this);
  {
    auto guard = proc_->enter_library();
    co_await proc_->compute(cpu);
  }

  // Block *outside* the library guard: MPVM re-implemented pvm_recv exactly
  // so that a process blocked here remains migratable (paper §4.1.1).
  const bool will_block = !mailbox_.probe(src, tag);
  Message m = co_await mailbox_.take(src, tag);

  sim::Time post = static_cast<double>(m.payload_bytes()) * 8.0 / c.unpack_bps;
  if (will_block) post += c.wakeup_context_switch;
  {
    auto guard = proc_->enter_library();
    co_await proc_->compute(post);
  }
  rbuf_ = std::make_unique<Buffer>(*m.body);
  if (m.tctx.valid()) tctx_ = m.tctx;  // continue the sender's trace
  co_return m;
}

sim::Co<std::optional<Message>> Task::trecv(std::int32_t src, std::int32_t tag,
                                            sim::Time timeout) {
  const auto& c = sys_->costs().pvm;
  {
    auto guard = proc_->enter_library();
    co_await proc_->compute(c.call_overhead + c.recv_fixed);
  }
  std::optional<Message> m = co_await mailbox_.take_for(src, tag, timeout);
  if (!m.has_value()) co_return std::nullopt;
  {
    auto guard = proc_->enter_library();
    co_await proc_->compute(static_cast<double>(m->payload_bytes()) * 8.0 /
                            c.unpack_bps);
  }
  rbuf_ = std::make_unique<Buffer>(*m->body);
  if (m->tctx.valid()) tctx_ = m->tctx;
  co_return m;
}

std::optional<Message> Task::nrecv(std::int32_t src, std::int32_t tag) {
  std::optional<Message> m = mailbox_.try_take(src, tag);
  if (m.has_value()) {
    rbuf_ = std::make_unique<Buffer>(*m->body);
    if (m->tctx.valid()) tctx_ = m->tctx;
  }
  return m;
}

bool Task::probe(std::int32_t src, std::int32_t tag) const {
  return mailbox_.probe(src, tag);
}

Buffer& Task::rbuf() {
  CPE_EXPECTS(rbuf_ != nullptr);  // nothing received yet
  return *rbuf_;
}

sim::Co<std::vector<Tid>> Task::spawn(const std::string& program, int count,
                                      const std::string& where) {
  co_return co_await sys_->spawn(program, count, where, logical_);
}

sim::Co<void> Task::compute(double ref_seconds) {
  co_await proc_->compute(ref_seconds);
}

std::vector<Tid> Task::tasks() const {
  std::vector<Tid> out;
  for (const Task* t : sys_->all_tasks())
    if (!t->exited()) out.push_back(t->tid());
  return out;
}

std::size_t Task::host_count() const { return sys_->daemons().size(); }

sim::Co<int> Task::joingroup(const std::string& group) {
  co_return co_await sys_->groups().join(group, logical_);
}

sim::Co<void> Task::leavegroup(const std::string& group) {
  co_await sys_->groups().leave(group, logical_);
}

sim::Co<void> Task::barrier(const std::string& group, int count) {
  co_await sys_->groups().barrier(group, count);
}

Tid Task::gettid(const std::string& group, int inst) const {
  const std::vector<Tid> members = sys_->groups().members(group);
  if (inst < 0 || static_cast<std::size_t>(inst) >= members.size())
    return Tid();
  return members[static_cast<std::size_t>(inst)];
}

int Task::getinst(const std::string& group) const {
  return sys_->groups().instance_of(group, logical_);
}

std::size_t Task::gsize(const std::string& group) const {
  return sys_->groups().size(group);
}

sim::Co<void> Task::reduce_sum(const std::string& group,
                               std::span<double> values, int tag,
                               int root_inst) {
  const int me = getinst(group);
  CPE_EXPECTS(me >= 0);  // must have joined the group
  const std::vector<Tid> members = sys_->groups().members(group);
  CPE_EXPECTS(root_inst >= 0 &&
              static_cast<std::size_t>(root_inst) < members.size());
  const Tid root = members[static_cast<std::size_t>(root_inst)];
  if (me != root_inst) {
    initsend().pk_double(std::span<const double>(values));
    co_await send(root, tag);
    co_return;
  }
  // Root: fold in every other member's contribution.
  std::vector<double> partial(values.size());
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    co_await recv(kAny, tag);
    rbuf().upk_double(partial);
    for (std::size_t k = 0; k < values.size(); ++k) values[k] += partial[k];
  }
}

sim::Co<void> Task::gbcast(const std::string& group, int tag) {
  std::vector<Tid> members = sys_->groups().members(group);
  std::erase(members, logical_);  // pvm_bcast excludes the caller
  co_await mcast(members, tag);
}

void Task::runtime_send(Tid dst, int tag, Buffer body) {
  CPE_EXPECTS(dst.valid());
  Message m(logical_, dst, tag, std::make_shared<const Buffer>(std::move(body)),
            ++next_seq_[dst.raw()]);
  sys_->route(*this, std::move(m));
}

void Task::runtime_send_ex(Tid dst, int tag,
                           std::shared_ptr<const Buffer> body, std::any aux,
                           std::size_t extra_bytes) {
  CPE_EXPECTS(dst.valid());
  if (!body) body = std::make_shared<const Buffer>();
  Message m(logical_, dst, tag, std::move(body), ++next_seq_[dst.raw()]);
  m.aux = std::move(aux);
  m.extra_bytes = extra_bytes;
  sys_->route(*this, std::move(m));
}

sim::Gate& Task::send_gate(Tid logical_dst) {
  auto& slot = gates_[logical_dst.raw()];
  if (!slot) slot = std::make_unique<sim::Gate>(sys_->engine(), /*open=*/true);
  return *slot;
}

void Task::set_control_handler(int tag, std::function<void(Message)> handler) {
  CPE_EXPECTS(tag >= kControlTagBase);
  for (auto& [t, h] : control_) {
    if (t == tag) {
      h = std::move(handler);
      return;
    }
  }
  control_.emplace_back(tag, std::move(handler));
}

bool Task::dispatch_control(const Message& m) {
  for (auto& [t, h] : control_) {
    if (t == m.tag) {
      if (m.tctx.valid()) {
        // Run the handler under the message's trace context so its replies
        // (flush acks, transport acks) continue the originating trace, then
        // restore: a control interruption must not re-home the task's own
        // ongoing trace.
        const obs::TraceContext saved = tctx_;
        tctx_ = m.tctx;
        h(m);
        tctx_ = saved;
      } else {
        h(m);
      }
      return true;
    }
  }
  return false;
}

bool Task::learn_mapping(Tid logical, Tid current, std::uint64_t epoch) {
  auto it = map_epoch_.find(logical.raw());
  if (it != map_epoch_.end() && epoch < it->second) return false;
  map_epoch_[logical.raw()] = epoch;
  tid_map_[logical.raw()] = current.raw();
  return true;
}

std::uint64_t Task::mapping_epoch(Tid logical) const {
  auto it = map_epoch_.find(logical.raw());
  return it == map_epoch_.end() ? 0 : it->second;
}

Tid Task::translate(Tid logical) const {
  auto it = tid_map_.find(logical.raw());
  return it == tid_map_.end() ? logical : Tid(it->second);
}

void Task::mark_exited() {
  exited_ = true;
  exited_trig_.fire();
}

std::uint64_t Task::sends_to(Tid logical) const {
  auto it = next_seq_.find(logical.raw());
  return it == next_seq_.end() ? 0 : it->second;
}

void Task::release(Message m) {
  // Traced deliveries leave an instant event here — where and when the
  // frame actually reaches the application — so the TraceAuditor's
  // flush-completeness invariant sees held/reordered frames at their real
  // release point, not at wire arrival.
  if (m.tctx.valid() || tctx_.valid()) {
    const obs::SpanId ev =
        sys_->spans().event(m.tctx.valid() ? m.tctx : tctx_, "pvm.deliver",
                            pvmd_->host().name(), logical_.raw());
    sys_->spans().annotate(ev, "task", logical_.str());
  }
  if (!dispatch_control(m)) mailbox_.push(std::move(m));
}

void Task::accept(Message m) {
  if (m.seq == 0) {
    // Unsequenced daemon-forged frame (exit notify, watch fire, stub ack):
    // no stream to order against.
    release(std::move(m));
    return;
  }
  const std::int32_t src_raw = m.src.raw();
  const std::uint64_t seq = m.seq;
  SeqWindow& w = inbox_[src_raw];
  if (seq < w.next) {
    // Behind the window: a duplicated/replayed frame (already released) or
    // a straggler behind an expired gap.  Releasing it now would break
    // exactly-once in-order, so it is dropped either way.
    sys_->seq_duplicates_ctr_->inc();
    return;
  }
  if (seq == w.next) {
    ++w.next;
    release(std::move(m));
    drain_ready(src_raw, w);
    return;
  }
  // Early frame: park it until the gap fills or the gap timer gives up on
  // the missing frames.  A duplicate of an already-parked frame folds away.
  if (!w.pending.emplace(seq, std::move(m)).second) {
    sys_->seq_duplicates_ctr_->inc();
    return;
  }
  sys_->seq_held_ctr_->inc();
  if (w.pending.size() > sys_->tuning().reorder_window_cap) {
    // Window overflow: the peer is pouring frames past a gap that is not
    // filling (adversarial reordering, or its daemon silently dropped the
    // missing frames).  Holding more would grow without bound, so give up
    // on the gap now — identical semantics to the gap timeout, just
    // triggered by memory pressure instead of the clock.  The missing
    // frames, should they straggle in later, are dropped as replays.
    sys_->seq_window_evicted_ctr_->inc();
    skip_gap(src_raw, w);
    return;
  }
  if (w.gap_deadline == 0) arm_gap_timer(src_raw, w);
}

void Task::skip_gap(std::int32_t src_raw, SeqWindow& w) {
  if (w.pending.empty()) return;
  sys_->seq_gaps_ctr_->inc();
  w.next = w.pending.begin()->first;
  w.gap_deadline = 0;
  drain_ready(src_raw, w);
}

void Task::drain_ready(std::int32_t src_raw, SeqWindow& w) {
  for (auto p = w.pending.find(w.next); p != w.pending.end();
       p = w.pending.find(w.next)) {
    Message m = std::move(p->second);
    w.pending.erase(p);
    ++w.next;
    release(std::move(m));
  }
  if (w.pending.empty())
    w.gap_deadline = 0;
  else if (w.gap_deadline == 0)
    arm_gap_timer(src_raw, w);
}

void Task::arm_gap_timer(std::int32_t src_raw, SeqWindow& w) {
  w.gap_deadline = sys_->engine().now() + kReorderGapTimeout;
  // Look the task up again at fire time: it may have exited (the Task
  // object lives until VM teardown, so the pointer held via the system map
  // stays valid or lookups return null).
  sys_->engine().schedule_at(
      w.gap_deadline, [sys = sys_, me = logical_, src_raw] {
        Task* t = sys->find_logical(me);
        if (t == nullptr || t->exited()) return;
        t->on_gap_timeout(src_raw);
      });
}

void Task::on_gap_timeout(std::int32_t src_raw) {
  auto it = inbox_.find(src_raw);
  if (it == inbox_.end()) return;
  SeqWindow& w = it->second;
  // A later frame may have re-armed the deadline past this firing.
  if (w.gap_deadline == 0 || sys_->engine().now() < w.gap_deadline) return;
  if (w.pending.empty()) {
    w.gap_deadline = 0;
    return;
  }
  // The gap never filled: the missing frames were dropped for good by the
  // sending daemon (peer unreachable past the retry budget).  Skip ahead to
  // the oldest held frame rather than stalling this pair forever.
  skip_gap(src_raw, w);
}

void Task::direct_send(Message m) {
  auto& slot = links_[m.dst.raw()];
  if (!slot) {
    slot = std::make_unique<DirectLink>(sys_->engine());
    slot->pump =
        sim::launch(sys_->engine(), direct_pump(this, slot.get(), m.dst));
  }
  slot->queue.send(std::move(m));
}

sim::Co<void> Task::direct_pump(Task* self, DirectLink* link,
                                Tid dst_logical) {
  PvmSystem& sys = *self->sys_;
  const auto& c = sys.costs().pvm;
  for (;;) {
    Message m = co_await link->queue.recv();
    Task* dst = sys.find_logical(dst_logical);
    if (dst == nullptr || dst->exited()) {
      sys.metrics().counter("pvm.messages_dropped").inc();
      continue;
    }
    const net::NodeId src_node = self->pvmd().host().node();
    const net::NodeId dst_node = dst->pvmd().host().node();
    // (Re)establish the connection when either endpoint moved — a real
    // direct route breaks on migration and the library reconnects.
    if (!link->stream || link->src_node != src_node ||
        link->dst_node != dst_node) {
      if (link->stream) sys.metrics().counter("pvm.direct.reconnects").inc();
      link->stream = co_await net::TcpStream::connect(sys.network(),
                                                      src_node, dst_node);
      link->src_node = src_node;
      link->dst_node = dst_node;
    }
    // A traced message carries its context on the wire (DESIGN.md §10).
    const std::size_t wire =
        m.payload_bytes() + c.msg_header_bytes +
        (m.tctx.valid() ? obs::kTraceContextWireBytes : 0);
    co_await link->stream->send(src_node, wire);
    // Delivered at the peer: re-check residence (it may have migrated while
    // the bytes were in flight) and hand the message over.
    Task* now = sys.find_logical(dst_logical);
    if (now == nullptr || now->exited()) continue;
    if (now->pvmd().host().node() != dst_node) {
      // Landed on the old host: forward through the daemons.
      sys.daemon_at(dst_node)->deliver_local(std::move(m), 1);
      continue;
    }
    sys.spans().on_receive(now->pvmd().host().name(), m.lamport);
    // Same sequenced entry point as the daemon path: the (src,dst) stream
    // spans both routes, so a pair switching between direct and daemon
    // routing keeps one FIFO.
    now->accept(std::move(m));
  }
}

}  // namespace cpe::pvm
