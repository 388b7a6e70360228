#include "pvm/system.hpp"

#include <algorithm>

namespace cpe::pvm {

// ---------------------------------------------------------------------------
// Pvmd
// ---------------------------------------------------------------------------

Pvmd::Pvmd(PvmSystem& sys, os::Host& host, std::uint32_t index)
    : sys_(&sys),
      host_(&host),
      node_(host.node()),
      index_(index),
      outgoing_(sys.engine()),
      inbound_(sys.engine()) {
  sys.network().datagrams().bind(
      node_, kPvmdPort,
      [this](net::Datagram d) { receive_datagram(std::move(d)); });
  pump_proc_ = sim::launch(sys.engine(), pump());
  inbound_proc_ = sim::launch(sys.engine(), inbound_pump());
}

Pvmd::~Pvmd() {
  // Uses the cached node id: the Host object may already be gone when the
  // virtual machine is torn down.
  sys_->network().datagrams().unbind(node_, kPvmdPort);
}

void Pvmd::attach(Task& t) {
  CPE_EXPECTS(local_.find(t.current_tid().raw()) == local_.end());
  local_[t.current_tid().raw()] = &t;
}

void Pvmd::detach(Task& t) { local_.erase(t.current_tid().raw()); }

Task* Pvmd::local_by_current(Tid current) const {
  auto it = local_.find(current.raw());
  return it == local_.end() ? nullptr : it->second;
}

void Pvmd::enqueue_remote(Message m, net::NodeId dst_node) {
  outgoing_.send(Outgoing(std::move(m), dst_node));
}

sim::Co<void> Pvmd::pump() {
  // The single-threaded pvmd: everything leaving this host is serialized,
  // which preserves per-pair FIFO on the wire.
  for (;;) {
    Outgoing o = co_await outgoing_.recv();
    // A traced message carries its context on the wire (DESIGN.md §10).
    const std::size_t wire =
        o.msg.payload_bytes() + sys_->costs().pvm.msg_header_bytes +
        (o.msg.tctx.valid() ? obs::kTraceContextWireBytes : 0);
    // Frame checksum (DESIGN.md §7): stamped at the wire point so injected
    // bit-corruption is detectable at the receiver.  Forwarded frames are
    // re-stamped over the same body — the CRC is per hop, the seq is
    // end-to-end.  The body remembers its CRC, so the stamp, every re-stamp
    // and the receiver's check hash an unchanged body once.
    o.msg.crc = o.msg.body ? o.msg.body->crc32() : 0;
    try {
      co_await sys_->network().datagrams().send(net::Datagram(
          host_->node(), o.dst_node, kPvmdPort, wire, std::move(o.msg)));
    } catch (const net::DeliveryError&) {
      // The peer (or this host) is unreachable: real pvmds drop the message
      // and keep serving.  Crash recovery is the schedulers' business.
      sys_->metrics().counter("pvm.messages_dropped").inc();
    }
  }
}

void Pvmd::receive_datagram(net::Datagram d) {
  Message m = std::any_cast<Message>(std::move(d.payload));
  // End-to-end frame check.  The transport's fragment checksum (the corrupt
  // hook) already rejects corrupted frames pre-ack, so this last line of
  // defense only trips on damage past that layer; a mismatch is a counted
  // drop, surfacing exactly like a lost frame.
  if (m.crc != 0 && m.body && m.body->crc32() != m.crc) {
    sys_->crc_dropped_ctr_->inc();
    return;
  }
  // Remote arrival: one pvmd->task local-socket hop remains.
  const auto& c = sys_->costs().pvm;
  const sim::Time cost =
      c.local_route_fixed / 2 +
      static_cast<double>(m.payload_bytes()) * 8.0 / c.local_route_bps;
  inbound_.send(Inbound(std::move(m), cost, /*hops=*/1));
}

void Pvmd::deliver_local(Message m, int hops) {
  const auto& c = sys_->costs().pvm;
  // Full task -> pvmd -> task path through Unix-domain sockets.
  const sim::Time cost =
      c.local_route_fixed +
      static_cast<double>(m.payload_bytes()) * 8.0 / c.local_route_bps;
  inbound_.send(Inbound(std::move(m), cost, hops));
}

sim::Co<void> Pvmd::inbound_pump() {
  for (;;) {
    Inbound in = co_await inbound_.recv();
    co_await sim::Delay(sys_->engine(), in.cost);
    dispatch(std::move(in.msg), in.hops);
  }
}

void Pvmd::dispatch(Message m, int hops) {
  if (hops > 8)
    throw Error("pvmd: message to " + m.dst.str() +
                " bounced through too many daemons (forwarding loop?)");
  // The message arrived at this host: merge the sender's Lamport stamp.
  sys_->spans().on_receive(host_->name(), m.lamport);
  Task* t = sys_->find_logical(m.dst);
  if (t == nullptr || t->exited()) {
    sys_->metrics().counter("pvm.messages_dropped").inc();
    return;
  }
  if (&t->pvmd() != this) {
    // The task migrated while this message was queued/in flight: forward it
    // to where it lives now, like the old host's mpvmd does.
    if (m.tctx.valid()) {
      const obs::SpanId ev =
          sys_->spans().event(m.tctx, "pvm.forward", host_->name());
      sys_->spans().annotate(ev, "task", m.dst.str());
      sys_->spans().annotate(ev, "to", t->pvmd().host().name());
    }
    if (sys_->forward_observer_) sys_->forward_observer_(m, *t, *this);
    m.lamport = sys_->spans().on_send(host_->name());
    enqueue_remote(std::move(m), t->pvmd().host().node());
    return;
  }
  // Sequenced delivery (DESIGN.md §7): the task's per-sender window dedups
  // replayed frames and re-orders held ones; the pvm.deliver trace event is
  // emitted inside at the actual release point.
  t->accept(std::move(m));
}

// ---------------------------------------------------------------------------
// GroupServer
// ---------------------------------------------------------------------------

GroupServer::Group& GroupServer::get(const std::string& name) {
  return groups_[name];
}

sim::Co<int> GroupServer::join(const std::string& group, Tid member) {
  co_await sim::Delay(eng_, rtt_);
  Group& g = get(group);
  for (std::size_t i = 0; i < g.members.size(); ++i)
    if (g.members[i] == member) co_return static_cast<int>(i);
  g.members.push_back(member);
  co_return static_cast<int>(g.members.size()) - 1;
}

sim::Co<void> GroupServer::leave(const std::string& group, Tid member) {
  co_await sim::Delay(eng_, rtt_);
  Group& g = get(group);
  std::erase(g.members, member);
}

sim::Co<void> GroupServer::barrier(const std::string& group, int count) {
  CPE_EXPECTS(count > 0);
  co_await sim::Delay(eng_, rtt_);
  Group& g = get(group);
  if (!g.barrier_release)
    g.barrier_release = std::make_unique<sim::Trigger>(eng_);
  if (++g.barrier_arrived >= count) {
    g.barrier_arrived = 0;
    g.barrier_release->fire();
    co_return;
  }
  co_await g.barrier_release->wait();
}

std::vector<Tid> GroupServer::members(const std::string& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? std::vector<Tid>{} : it->second.members;
}

int GroupServer::instance_of(const std::string& group, Tid member) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) return -1;
  for (std::size_t i = 0; i < it->second.members.size(); ++i)
    if (it->second.members[i] == member) return static_cast<int>(i);
  return -1;
}

std::size_t GroupServer::size(const std::string& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.members.size();
}

// ---------------------------------------------------------------------------
// PvmSystem
// ---------------------------------------------------------------------------

PvmSystem::PvmSystem(sim::Engine& eng, net::Network& net,
                     calib::CostModel costs)
    : eng_(eng),
      net_(&net),
      costs_(costs),
      metrics_(&eng),
      spans_(eng),
      groups_(eng, costs.pvm.group_rtt),
      all_exited_(eng) {
  msgs_routed_ctr_ = &metrics_.counter("pvm.messages_routed");
  bytes_routed_ctr_ = &metrics_.counter("pvm.bytes_routed");
  seq_duplicates_ctr_ = &metrics_.counter("pvm.seq.duplicates_dropped");
  seq_held_ctr_ = &metrics_.counter("pvm.seq.reordered_held");
  seq_gaps_ctr_ = &metrics_.counter("pvm.seq.gaps_skipped");
  seq_window_evicted_ctr_ = &metrics_.counter("pvm.seq.window_evicted");
  crc_dropped_ctr_ = &metrics_.counter("pvm.crc.dropped");
  // Pull-style: snapshot the transport totals into gauges at export time so
  // the per-fragment send path never touches the registry.
  metrics_.add_collector([this](obs::MetricsRegistry& reg) {
    const auto& dg = net_->datagrams();
    reg.gauge("net.datagrams.sent").set(static_cast<double>(dg.datagrams_sent()));
    reg.gauge("net.datagrams.unreliable_sent")
        .set(static_cast<double>(dg.unreliable_sent()));
    reg.gauge("net.datagram.bytes_sent")
        .set(static_cast<double>(dg.payload_bytes_sent()));
    reg.gauge("net.fragments.retransmitted")
        .set(static_cast<double>(dg.fragments_retransmitted()));
    reg.gauge("net.datagram.drops_total")
        .set(static_cast<double>(dg.drops_total()));
    reg.gauge("net.datagram.delivery_errors_total")
        .set(static_cast<double>(dg.delivery_errors_total()));
    // Adversarial-injection totals (DESIGN.md §7): the sweeps assert these
    // are nonzero when a chaos profile is active.
    reg.gauge("net.datagram.duplicates_injected")
        .set(static_cast<double>(dg.duplicates_injected()));
    reg.gauge("net.datagram.reorders_injected")
        .set(static_cast<double>(dg.reorders_injected()));
    reg.gauge("net.datagram.bursts_injected")
        .set(static_cast<double>(dg.bursts_injected()));
    reg.gauge("net.datagram.corrupt_injected")
        .set(static_cast<double>(dg.corrupt_injected()));
    reg.gauge("net.datagram.corrupt_dropped")
        .set(static_cast<double>(dg.corrupt_dropped()));
    reg.gauge("net.datagram.corrupt_delivered")
        .set(static_cast<double>(dg.corrupt_delivered()));
    reg.gauge("net.tcp.corrupt_segments")
        .set(static_cast<double>(net_->tcp_corrupt_segments()));
    reg.gauge("net.tcp.bursts").set(static_cast<double>(net_->tcp_bursts()));
    const auto& eth = net_->ethernet();
    reg.gauge("net.ether.frames").set(static_cast<double>(eth.total_frames()));
    reg.gauge("net.ether.payload_bytes")
        .set(static_cast<double>(eth.total_payload_bytes()));
  });
  // Teach the transport what corruption does to a PVM frame: flip one
  // payload bit, then report whether the frame CRC catches it.  Non-PVM
  // payloads (GS wire state, load gossip) carry their own transport
  // checksum in this model — corruption of those is always detected and
  // the frame dropped at the fragment level.
  net_->datagrams().set_corrupt_hook([this](std::any& payload) -> bool {
    Message* m = std::any_cast<Message>(&payload);
    if (m == nullptr) return true;
    if (!m->body || m->body->bytes() == 0) return true;  // header-only frame
    Buffer garbled(*m->body);  // shares the bytes until the flip clones them
    garbled.corrupt_bit(static_cast<std::size_t>(corrupt_rng_.below(
        static_cast<std::uint64_t>(garbled.bytes()) * 8)));
    m->body = std::make_shared<const Buffer>(std::move(garbled));
    return m->crc == 0 || m->body->crc32() != m->crc;
  });
}

PvmSystem::~PvmSystem() {
  for (Task* t : registry_)
    if (!t->exited()) t->process().kill();
}

Pvmd& PvmSystem::add_host(os::Host& host) {
  CPE_EXPECTS(daemon_on(host) == nullptr);
  daemons_.push_back(std::make_unique<Pvmd>(
      *this, host, static_cast<std::uint32_t>(daemons_.size())));
  daemon_of_.emplace(&host, daemons_.back().get());
  host.add_observer([this](os::Host& h, os::HostEvent ev) {
    if (ev == os::HostEvent::kCrash) handle_host_crash(h);
  });
  return *daemons_.back();
}

void PvmSystem::handle_host_crash(os::Host& host) {
  // Collect first: firing exit watches delivers messages and may re-enter.
  // registry_ is in logical-tid order, so the watches fire in that order.
  std::vector<Task*> lost;
  for (Task* t : registry_) {
    if (!t->exited() && &t->pvmd().host() == &host) lost.push_back(t);
  }
  for (Task* t : lost) {
    if (t->process().alive()) {
      // Crash-recoverable: the process was spared (stranded); a recovery
      // driver will restart it from its checkpoint on another host.
      continue;
    }
    t->pvmd().detach(*t);
    t->mark_exited();
    fire_exit_watches(*t, /*crashed=*/true);
    CPE_ASSERT(live_tasks_ > 0);
    if (--live_tasks_ == 0) all_exited_.fire();
  }
}

Pvmd* PvmSystem::daemon_on(const os::Host& host) const {
  const auto it = daemon_of_.find(&host);
  return it == daemon_of_.end() ? nullptr : it->second;
}

Pvmd* PvmSystem::daemon_at(net::NodeId node) const {
  for (const auto& d : daemons_)
    if (d->host().node() == node) return d.get();
  return nullptr;
}

void PvmSystem::register_program(const std::string& name, TaskMain main) {
  CPE_EXPECTS(main != nullptr);
  programs_[name] = std::move(main);
}

bool PvmSystem::has_program(const std::string& name) const {
  return programs_.find(name) != programs_.end();
}

namespace {
sim::Co<void> task_wrapper(PvmSystem* sys, Task* t, TaskMain fn) {
  co_await fn(*t);
  sys->on_task_exit(*t);
}
}  // namespace

sim::Co<Task*> PvmSystem::spawn_one(const std::string& program, Pvmd& pvmd,
                                    Tid parent) {
  co_await sim::Delay(eng_,
                      costs_.pvm.spawn_fork_exec + costs_.pvm.enroll);
  os::Process& proc = pvmd.host().create_process(program);
  const Tid tid = pvmd.allocate_tid();
  auto owned =
      std::make_unique<Task>(*this, pvmd, proc, tid, parent, program);
  Task* t = owned.get();
  by_logical_[tid.raw()] = std::move(owned);
  // Tids grow per daemon, not VM-wide: insert in logical-tid order.
  registry_.insert(std::upper_bound(registry_.begin(), registry_.end(), t,
                                    [](const Task* a, const Task* b) {
                                      return a->tid() < b->tid();
                                    }),
                   t);
  current_to_logical_[tid.raw()] = tid.raw();
  pvmd.attach(*t);
  ++live_tasks_;
  if (task_observer_) task_observer_(*t);
  proc.run(task_wrapper(this, t, programs_.at(program)));
  co_return t;
}

sim::Co<std::vector<Tid>> PvmSystem::spawn(const std::string& program,
                                           int count,
                                           const std::string& where,
                                           Tid parent) {
  CPE_EXPECTS(count > 0);
  CPE_EXPECTS(!daemons_.empty());
  if (!has_program(program))
    throw Error("pvm_spawn: no such program: " + program);

  std::vector<Tid> tids;
  tids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Pvmd* d = nullptr;
    if (where.empty()) {
      d = daemons_[next_spawn_host_++ % daemons_.size()].get();
    } else {
      for (const auto& cand : daemons_)
        if (cand->host().name() == where) d = cand.get();
      if (d == nullptr)
        throw Error("pvm_spawn: host not in virtual machine: " + where);
    }
    Task* t = co_await spawn_one(program, *d, parent);
    tids.push_back(t->tid());
  }
  co_return tids;
}

Task* PvmSystem::find_logical(Tid logical) const {
  auto it = by_logical_.find(logical.raw());
  return it == by_logical_.end() ? nullptr : it->second.get();
}

Task* PvmSystem::find_current(Tid current) const {
  auto it = current_to_logical_.find(current.raw());
  return it == current_to_logical_.end() ? nullptr
                                         : find_logical(Tid(it->second));
}

Tid PvmSystem::resolve_current(Tid maybe_stale) const {
  std::int32_t t = maybe_stale.raw();
  for (int i = 0; i < 64; ++i) {
    auto it = forward_.find(t);
    if (it == forward_.end()) return Tid(t);
    t = it->second;
  }
  throw Error("resolve_current: forwarding cycle");
}

bool PvmSystem::is_local(const Task& from, Tid dst) const {
  const Tid cur = from.translate(dst);
  return cur.valid() && cur.host_index() < daemons_.size() &&
         daemons_[cur.host_index()].get() == &from.pvmd();
}

void PvmSystem::route(Task& from, Message m) {
  msgs_routed_ctr_->inc();
  bytes_routed_ctr_->inc(m.payload_bytes());
  // Correspondent tracking (MPVM scoped flush): an application message makes
  // sender and receiver correspondents of each other.  Control traffic does
  // not count — a flush must not inflate the very set it targets.
  if (m.tag < kControlTagBase) {
    from.note_peer(m.dst);
    if (Task* to = find_logical(m.dst)) to->note_peer(from.tid());
  }
  // Causal tracing: a send inherits the sender's trace context (unless the
  // caller pre-stamped one) and ticks the sender host's Lamport clock.
  if (!m.tctx.valid()) m.tctx = from.trace_context();
  m.lamport = spans_.on_send(from.pvmd().host().name());
  // The sender's library maps the logical destination to where it believes
  // the task currently runs; a stale belief is corrected by daemon-level
  // forwarding on arrival.
  const Tid current_guess = from.translate(m.dst);
  CPE_EXPECTS(current_guess.valid());
  const std::uint32_t host_idx = current_guess.host_index();
  CPE_EXPECTS(host_idx < daemons_.size());
  Pvmd& dst_d = *daemons_[host_idx];
  Pvmd& src_d = from.pvmd();
  if (&dst_d == &src_d)
    src_d.deliver_local(std::move(m), 0);
  else if (from.direct_route())
    from.direct_send(std::move(m));
  else
    src_d.enqueue_remote(std::move(m), dst_d.host().node());
}

Tid PvmSystem::retid(Task& task, os::Host& new_host) {
  Pvmd* nd = daemon_on(new_host);
  CPE_EXPECTS(nd != nullptr);
  task.pvmd().detach(task);
  const Tid old = task.current_tid();
  const Tid fresh = nd->allocate_tid();
  forward_[old.raw()] = fresh.raw();
  current_to_logical_.erase(old.raw());
  current_to_logical_[fresh.raw()] = task.tid().raw();
  task.set_current_tid(fresh);
  task.set_pvmd(*nd);
  nd->attach(task);
  return fresh;
}

bool PvmSystem::kill(Tid logical) {
  Task* t = find_logical(logical);
  if (t == nullptr || t->exited()) return false;
  t->pvmd().detach(*t);
  t->mark_exited();
  // Abort the program via an event: kill(2) semantics, and safe even when a
  // task kills itself (destroying the running frame inline would be UB).
  eng_.schedule_in(0, [proc = &t->process()] { proc->kill(); });
  fire_exit_watches(*t);
  CPE_ASSERT(live_tasks_ > 0);
  if (--live_tasks_ == 0) all_exited_.fire();
  return true;
}

void PvmSystem::notify_exit(Tid observer, Tid observed, int tag) {
  Task* watched = find_logical(observed);
  Task* watcher = find_logical(observer);
  CPE_EXPECTS(watcher != nullptr);
  if (watched == nullptr || watched->exited()) {
    // Fire immediately, as pvm_notify does for already-dead tasks.
    Buffer b;
    b.pk_int(observed.raw());
    b.pk_int(0);
    Message m(observed, observer, tag,
              std::make_shared<const Buffer>(std::move(b)));
    watcher->pvmd().deliver_local(std::move(m), 0);
    return;
  }
  exit_watches_.push_back(ExitWatch{observer.raw(), observed.raw(), tag});
}

void PvmSystem::fire_exit_watches(Task& t, bool crashed) {
  // Collect first: delivering can re-enter (watch lists, handlers).
  std::vector<ExitWatch> due;
  std::erase_if(exit_watches_, [&](const ExitWatch& w) {
    if (w.observed != t.tid().raw()) return false;
    due.push_back(w);
    return true;
  });
  for (const ExitWatch& w : due) {
    Task* watcher = find_logical(Tid(w.observer));
    if (watcher == nullptr || watcher->exited()) continue;
    Buffer b;
    b.pk_int(w.observed);
    b.pk_int(crashed ? 1 : 0);
    Message m(t.tid(), watcher->tid(), w.tag,
              std::make_shared<const Buffer>(std::move(b)));
    watcher->pvmd().deliver_local(std::move(m), 0);
  }
}

void PvmSystem::on_task_exit(Task& t) {
  if (t.exited()) return;
  t.pvmd().detach(t);
  t.mark_exited();
  fire_exit_watches(t);
  // Reap the OS process *after* the program coroutine reaches its final
  // suspend: on_task_exit runs inside that coroutine, and Process::kill
  // would otherwise destroy a still-running frame.
  eng_.schedule_in(0, [proc = &t.process()] { proc->kill(); });
  CPE_ASSERT(live_tasks_ > 0);
  if (--live_tasks_ == 0) all_exited_.fire();
}

sim::Co<void> PvmSystem::wait_exit(Tid logical) {
  Task* t = find_logical(logical);
  CPE_EXPECTS(t != nullptr);
  while (!t->exited()) co_await t->exit_trigger().wait();
}

sim::Co<void> PvmSystem::wait_all_exited() {
  while (live_tasks_ > 0) co_await all_exited_.wait();
}

}  // namespace cpe::pvm
