#include "mpvm/mpvm.hpp"

#include <algorithm>

#include "net/tcp.hpp"

namespace cpe::mpvm {

namespace {
/// Transfer granularity for both the pre-copy stream and the stop-copy.
constexpr std::size_t kTransferChunkBytes = 256 * 1024;
}  // namespace

Reenrollment reenroll(pvm::PvmSystem& vm, pvm::Task& t, os::Host& dst,
                      std::span<pvm::Task* const> peers) {
  Reenrollment re;
  re.fresh = vm.retid(t, dst);
  re.epoch = vm.bump_relocation_epoch(t.tid());
  for (pvm::Task* other : peers) {
    if (other == &t || other->exited()) continue;
    pvm::Buffer b;
    b.pk_int(t.tid().raw());
    b.pk_int(re.fresh.raw());
    b.pk_uint(static_cast<std::uint32_t>(re.epoch));
    t.runtime_send(other->tid(), kTagRestart, std::move(b));
  }
  return re;
}

std::string_view to_string(MigrationStage s) {
  switch (s) {
    case MigrationStage::kEvent: return "event";
    case MigrationStage::kFrozen: return "frozen";
    case MigrationStage::kFlushed: return "flushed";
    case MigrationStage::kTransferred: return "transferred";
    case MigrationStage::kRestarted: return "restarted";
    case MigrationStage::kFailed: return "failed";
  }
  return "?";
}

Mpvm::Mpvm(pvm::PvmSystem& vm) : vm_(&vm) {
  vm.set_shim(std::make_unique<MpvmShim>(vm.costs().mpvm));
  vm.set_task_observer([this](pvm::Task& t) { link_runtime_into(t); });
  vm.set_forward_observer(
      [this](const pvm::Message& m, pvm::Task& t, pvm::Pvmd& at) {
        on_residual_forward(m, t, at);
      });
}

void Mpvm::link_runtime_into(pvm::Task& t) {
  t.set_control_handler(
      kTagFlush, [this, &t](pvm::Message m) { on_flush(t, m); });
  t.set_control_handler(kTagFlushAck,
                        [this](pvm::Message m) { on_flush_ack(m); });
  t.set_control_handler(
      kTagRestart, [this, &t](pvm::Message m) { on_restart(t, m); });
  t.set_control_handler(
      kTagMigrateAbort, [this, &t](pvm::Message m) { on_abort(t, m); });
  t.set_control_handler(
      kTagRouteUpdate, [this, &t](pvm::Message m) { on_route_update(t, m); });
}

void Mpvm::on_flush(pvm::Task& self, const pvm::Message& m) {
  // "The flush message is acknowledged and from then onwards, a send to the
  // migrating process blocks the sending process." (§2.1 stage 2)
  pvm::Buffer b(*m.body);
  const pvm::Tid victim(b.upk_int());
  const std::int32_t seq = b.upk_int();
  // A task frozen mid-migration cannot run its own flush handler (the
  // re-entrancy restriction applies to the runtime too).  Its mpvmd stub
  // closes the gate and acks in its stead — the stub owns the channel state,
  // so the FIFO guarantee behind the ack still holds.  Without it two
  // overlapping migrations would each wait on the other's ack until both
  // time out (the historic cross-flush deadlock).
  const auto self_mig = pending_.find(self.tid().raw());
  const bool self_frozen =
      self_mig != pending_.end() && self_mig->second->frozen;
  self.send_gate(victim).close();
  if (self_frozen) {
    vm_->metrics().counter("mpvm.flush.acks_substituted").inc();
    if (m.tctx.valid()) {
      const obs::SpanId ev = vm_->spans().event(
          m.tctx, "mpvm.flush.substitute", self.pvmd().host().name(),
          self.tid().raw());
      vm_->spans().annotate(ev, "for", self.tid().str());
    }
  }
  pvm::Buffer ack;
  ack.pk_int(victim.raw());
  ack.pk_int(seq);
  ack.pk_int(self_frozen ? 1 : 0);
  self.runtime_send(victim, kTagFlushAck, std::move(ack));
}

void Mpvm::on_flush_ack(const pvm::Message& m) {
  pvm::Buffer b(*m.body);
  const std::int32_t victim_raw = b.upk_int();
  const std::int32_t seq = b.upk_int();
  auto it = pending_.find(victim_raw);
  if (it == pending_.end()) return;  // stale ack from an aborted protocol
  PendingFlush* pf = it->second.get();
  // An ack answering an *earlier* migration of the same task can still be
  // on the wire when the next protocol claims the slot — before that
  // protocol's flush stage even arms the trigger.  Counting it would fire
  // a null trigger (pre-arm) or complete the new flush with a peer whose
  // send gate is still open; the round stamp keeps the rounds apart.
  if (pf->all_acked == nullptr || seq != pf->seq) return;
  pf->acked.insert(m.src.raw());
  if (pf->received() >= pf->expected) pf->all_acked->fire();
}

void Mpvm::on_restart(pvm::Task& self, const pvm::Message& m) {
  // Restart carries the migrated task's new tid and migration epoch:
  // install the re-mapping and unblock senders (§2.1 stage 4).  A restart
  // from a *superseded* migration (the task moved again while this message
  // was in flight) is fenced off by the epoch check — the newer mapping
  // already opened the gate, so nothing else to do.
  pvm::Buffer b(*m.body);
  const pvm::Tid victim(b.upk_int());
  const pvm::Tid fresh(b.upk_int());
  const std::uint64_t epoch = b.upk_uint();
  if (!self.learn_mapping(victim, fresh, epoch)) {
    vm_->metrics().counter("mpvm.residual.dropped_stale").inc();
    return;
  }
  self.send_gate(victim).open();
}

void Mpvm::on_abort(pvm::Task& self, const pvm::Message& m) {
  // The migration rolled back: the victim stays where it was, so reopen the
  // send gate without installing any re-mapping.
  pvm::Buffer b(*m.body);
  const pvm::Tid victim(b.upk_int());
  self.send_gate(victim).open();
}

void Mpvm::on_route_update(pvm::Task& self, const pvm::Message& m) {
  // The old host's stub caught one of our sends to a migrated task and
  // tells us where it lives now.  Same fencing rule as restarts: an update
  // from a superseded migration must not regress the mapping.
  pvm::Buffer b(*m.body);
  const pvm::Tid victim(b.upk_int());
  const pvm::Tid fresh(b.upk_int());
  const std::uint64_t epoch = b.upk_uint();
  if (!self.learn_mapping(victim, fresh, epoch))
    vm_->metrics().counter("mpvm.residual.dropped_stale").inc();
}

void Mpvm::on_residual_forward(const pvm::Message& m, pvm::Task& t,
                               pvm::Pvmd& at) {
  auto it = residuals_.find(t.tid().raw());
  if (it == residuals_.end()) return;
  Residual& r = it->second;
  if (vm_->engine().now() > r.expires) {
    residuals_.erase(it);
    return;
  }
  vm_->metrics().counter("mpvm.residual.forwarded").inc();
  obs::SpanTracer& sp = vm_->spans();
  const obs::SpanId ev =
      sp.event(r.ctx, "mpvm.residual.forward", at.host().name(), t.tid().raw());
  sp.annotate(ev, "task", t.tid().str());
  sp.annotate(ev, "from", m.src.str());
  sp.annotate(ev, "mig_epoch", std::to_string(r.epoch));
  // MOSIX home-node style: teach the stale sender the new mapping (once per
  // sender) so its next send goes direct instead of bouncing here forever.
  if (!r.updated.insert(m.src.raw()).second) return;
  pvm::Task* sender = vm_->find_logical(m.src);
  if (sender == nullptr || sender->exited()) return;
  const obs::TraceContext saved = t.trace_context();
  t.set_trace_context(r.ctx);
  pvm::Buffer b;
  b.pk_int(t.tid().raw());
  b.pk_int(r.fresh.raw());
  b.pk_uint(static_cast<std::uint32_t>(r.epoch));
  t.runtime_send(m.src, kTagRouteUpdate, std::move(b));
  t.set_trace_context(saved);
  vm_->metrics().counter("mpvm.residual.route_updates").inc();
}

bool Mpvm::request_abort(pvm::Tid victim, std::string reason) {
  auto it = pending_.find(victim.raw());
  if (it == pending_.end()) return false;
  PendingFlush* pf = it->second.get();
  if (pf->abort_requested) return false;
  pf->abort_requested = true;
  pf->abort_reason = std::move(reason);
  vm_->metrics().counter("mpvm.migrations.abort_requested").inc();
  // Wake a flush wait in progress; chunk loops poll the flag themselves.
  if (pf->all_acked != nullptr) pf->all_acked->fire();
  return true;
}

void Mpvm::notify_stage(pvm::Tid task, MigrationStage stage) {
  // Copy: an observer (a fault injector) may mutate the observer list.
  const std::vector<StageObserver> obs = stage_observers_;
  for (const auto& o : obs) o(task, stage);
}

MigrationStats Mpvm::abort_migration(pvm::Task* t, pvm::Tid victim,
                                     const std::vector<pvm::Task*>& others,
                                     const std::shared_ptr<os::CpuJob>& burst,
                                     os::Host& src, MigrationStats stats,
                                     const std::string& reason,
                                     obs::SpanId mig_span,
                                     obs::SpanId open_stage) {
  obs::SpanTracer& sp = vm_->spans();
  if (open_stage != 0) sp.end_span(open_stage, obs::SpanStatus::kAborted);
  if (mig_span != 0) {
    const obs::SpanId rb = sp.event(sp.context_of(mig_span), "mpvm.rollback",
                                    src.name(), victim.raw());
    sp.annotate(rb, "reason", reason);
    sp.end_span(mig_span, obs::SpanStatus::kAborted);
  }
  const bool task_alive = t != nullptr && !t->exited();
  // Un-freeze: hand the detached burst back to the (live) source CPU so the
  // victim continues exactly where it was stopped.
  if (task_alive && src.up() && burst && !burst->done &&
      burst->scheduler == nullptr) {
    src.cpu().adopt(burst);
  }
  // Unblock pending senders.  The abort broadcast rides the normal channels
  // when the victim can still transmit; peers unreachable to it (or everyone,
  // when the source is down) get their gates opened directly — a dead host
  // cannot announce its own demise.
  for (pvm::Task* other : others) {
    if (other->exited()) continue;
    if (task_alive && src.up()) {
      pvm::Buffer b;
      b.pk_int(victim.raw());
      t->runtime_send(other->tid(), kTagMigrateAbort, std::move(b));
    } else {
      other->send_gate(victim).open();
    }
  }
  // Cleared only now: the abort broadcast above still rides the trace.
  if (t != nullptr) t->clear_trace_context();
  stats.ok = false;
  stats.failure = reason;
  vm_->metrics().counter("mpvm.migrations.failed").inc();
  notify_stage(victim, MigrationStage::kFailed);
  return stats;
}

sim::Co<MigrationStats> Mpvm::migrate(pvm::Tid victim, os::Host& dst,
                                      std::optional<std::uint64_t> epoch,
                                      obs::TraceContext ctx) {
  sim::Engine& eng = vm_->engine();
  const auto& mc = vm_->costs().mpvm;
  obs::SpanTracer& sp = vm_->spans();

  // Fencing: a command stamped with a deposed leader's term is refused
  // before any protocol state is touched.
  if (fence_ && epoch && !fence_->admit(*epoch)) {
    vm_->metrics().counter("mpvm.fenced").inc();
    pvm::Task* ft = vm_->find_logical(victim);
    const std::string fenced_host =
        ft != nullptr ? ft->pvmd().host().name() : std::string("gs");
    const obs::SpanId fenced =
        sp.begin_span(ctx, "mpvm.migrate", fenced_host, victim.raw());
    sp.annotate(fenced, "task", victim.str());
    sp.annotate(fenced, "epoch", std::to_string(*epoch));
    sp.annotate(fenced, "floor", std::to_string(fence_->floor()));
    sp.end_span(fenced, obs::SpanStatus::kFenced);
    throw MigrationError("mpvm: migrate " + victim.str() +
                         " fenced: stale epoch " + std::to_string(*epoch) +
                         " < " + std::to_string(fence_->floor()));
  }

  pvm::Task* t = vm_->find_logical(victim);
  if (t == nullptr || t->exited())
    throw MigrationError("mpvm: no such task: " + victim.str());
  os::Host& src = t->pvmd().host();
  if (&src == &dst)
    throw MigrationError("mpvm: task " + victim.str() + " already on " +
                         dst.name());
  if (vm_->daemon_on(dst) == nullptr)
    throw MigrationError("mpvm: host " + dst.name() +
                         " is not in the virtual machine");
  if (!src.migration_compatible_with(dst))
    throw MigrationError("mpvm: " + src.name() + " (" + src.arch() + ") -> " +
                         dst.name() + " (" + dst.arch() +
                         "): hosts are not migration compatible");
  if (migrating(victim))
    throw MigrationError("mpvm: migration of " + victim.str() +
                         " already in progress");
  // Claim the victim *before* the first suspension point: a second migrate
  // of the same task arriving during the signal-latency window must be
  // refused by the check above.
  auto& pf_slot = pending_[victim.raw()];
  pf_slot = std::make_unique<PendingFlush>();
  pf_slot->seq = ++flush_seq_;
  PendingFlush* pf = pf_slot.get();  // address-stable (unique_ptr value)
  sim::ScopeExit unclaim([this, victim] { pending_.erase(victim.raw()); });
  // Concurrency gauge: +1 for the life of this protocol window, whatever
  // exit path it takes.  Windowed by Analytics as the in-flight series.
  if (inflight_gauge_ == nullptr)
    inflight_gauge_ = &vm_->metrics().gauge("mpvm.migrations.inflight");
  inflight_gauge_->add(1.0);
  sim::ScopeExit deflate([this] { inflight_gauge_->add(-1.0); });

  MigrationStats stats;
  stats.task = victim;
  stats.from_host = src.name();
  stats.to_host = dst.name();
  stats.event_time = eng.now();
  // Root the migration's span tree.  Every protocol stage, retry, and
  // rollback below becomes a descendant; the victim carries the context for
  // the protocol window so flush/ack/restart traffic is stamped on the wire.
  const obs::SpanId mig =
      sp.begin_span(ctx, "mpvm.migrate", src.name(), victim.raw());
  sp.annotate(mig, "task", victim.str());
  sp.annotate(mig, "from", src.name());
  sp.annotate(mig, "to", dst.name());
  if (epoch) sp.annotate(mig, "epoch", std::to_string(*epoch));
  const obs::TraceContext mig_ctx = sp.context_of(mig);
  t->set_trace_context(mig_ctx);
  notify_stage(victim, MigrationStage::kEvent);

  obs::SpanId stage = 0;

  // ---- Stage 0 (optional): pre-copy while the task still runs -------------
  // Incremental transfer (DESIGN.md §12, after "Process Migration over
  // CCNx"): start the skeleton early and stream the whole image while the
  // task keeps computing, then freeze only for the dirty residue.  Any
  // failure here is non-fatal — the protocol falls back to the classic
  // full-image stop-and-copy of stage 3.
  std::shared_ptr<net::TcpStream> precopy_stream;
  std::size_t precopy_residue = 0;  // image bytes to re-send under freeze
  if (tuning_.precopy) {
    stage = sp.begin_span(mig_ctx, "mpvm.precopy", src.name(), victim.raw());
    const sim::Time precopy_start = eng.now();
    const sim::Time precopy_deadline = precopy_start + timeouts_.transfer;
    co_await sim::Delay(eng, mc.skeleton_start);  // early fork+exec on `dst`
    bool precopy_ok = dst.up() && src.up() && !t->exited() &&
                      !pf->abort_requested &&
                      (!skeleton_spawn_hook_ || skeleton_spawn_hook_(victim, dst));
    const std::size_t image_bytes = t->process().image().migratable_bytes();
    if (precopy_ok) {
      obs::SpanId chunk_span = 0;
      try {
        precopy_stream = co_await net::TcpStream::connect(
            vm_->network(), src.node(), dst.node());
        std::size_t remaining = image_bytes;
        while (remaining > 0) {
          if (pf->abort_requested || !dst.up() || !src.up() || t->exited() ||
              eng.now() > precopy_deadline) {
            precopy_ok = false;
            break;
          }
          const std::size_t chunk = std::min(kTransferChunkBytes, remaining);
          chunk_span = sp.begin_span(sp.context_of(stage), "mpvm.precopy.chunk",
                                     src.name(), victim.raw());
          sp.annotate(chunk_span, "bytes", std::to_string(chunk));
          co_await sim::Delay(
              eng, static_cast<double>(chunk) * 8.0 / mc.state_copy_bps);
          co_await precopy_stream->send(src.node(), chunk);
          sp.end_span(chunk_span, obs::SpanStatus::kOk);
          chunk_span = 0;
          remaining -= chunk;
          stats.precopy_bytes += chunk;
        }
      } catch (const net::DeliveryError&) {
        precopy_ok = false;
      }
      if (chunk_span != 0) sp.end_span(chunk_span, obs::SpanStatus::kAborted);
    }
    if (precopy_ok) {
      // The residue the freeze must still move: whatever the running task
      // re-dirtied during the stream, floored at the context pages.
      const sim::Time dt = eng.now() - precopy_start;
      precopy_residue = std::min(
          image_bytes,
          std::max(t->process().image().context_bytes,
                   static_cast<std::size_t>(tuning_.dirty_rate_bps / 8.0 * dt)));
      sp.annotate(stage, "bytes", std::to_string(stats.precopy_bytes));
      sp.annotate(stage, "residue", std::to_string(precopy_residue));
      sp.end_span(stage, obs::SpanStatus::kOk);
    } else {
      // Fall back to stop-and-copy; the abort/crash checks of the regular
      // stages below decide whether the migration survives at all.
      precopy_stream.reset();
      stats.precopy_bytes = 0;
      vm_->metrics().counter("mpvm.precopy.failed").inc();
      sp.end_span(stage, obs::SpanStatus::kAborted);
    }
    stage = 0;
    if (pf->abort_requested)
      co_return abort_migration(t, victim, {}, nullptr, src, stats,
                                "aborted: " + pf->abort_reason, mig);
    if (t->exited() || !src.up())
      co_return abort_migration(t, victim, {}, nullptr, src, stats,
                                !src.up() ? "source host down during pre-copy"
                                          : "task exited during pre-copy",
                                mig);
  }

  // ---- Stage 1: freeze the task ------------------------------------------
  // SIGMIGRATE delivery latency, then wait out any library critical section.
  stage = sp.begin_span(mig_ctx, "mpvm.freeze", src.name(), victim.raw());
  co_await sim::Delay(eng, src.config().signal_latency);
  while (t->process().in_library())
    co_await t->process().library_exited().wait();
  if (t->exited() || !src.up())
    co_return abort_migration(t, victim, {}, nullptr, src, stats,
                              !src.up() ? "source host down before freeze"
                                        : "task exited before freeze",
                              mig, stage);
  // Freeze a mid-flight compute burst; a task blocked in pvm_recv needs no
  // freezing (the re-implemented pvm_recv permits migration there, §4.1.1).
  std::shared_ptr<os::CpuJob> frozen_burst = t->process().active_burst;
  if (frozen_burst && frozen_burst->scheduler != nullptr)
    frozen_burst->scheduler->detach(frozen_burst);
  stats.frozen_time = eng.now();
  // From here until the protocol resolves, the victim cannot run handlers:
  // flushes from concurrent migrations are answered by its stub instead.
  pf->frozen = true;
  sp.end_span(stage, obs::SpanStatus::kOk);
  stage = 0;
  notify_stage(victim, MigrationStage::kFrozen);
  if (t->exited() || !src.up())
    co_return abort_migration(t, victim, {}, frozen_burst, src, stats,
                              !src.up() ? "source host crashed while frozen"
                                        : "task died while frozen",
                              mig);

  // ---- Stage 2: message flushing ------------------------------------------
  // Scoped flush (DESIGN.md §12): only the victim's *correspondents* — tasks
  // it has exchanged application messages with — can hold the in-flight
  // messages the FIFO-flush guarantee is about.  Everyone else's first
  // contact after the move is caught by the old host's forwarding stub and
  // a route update, so the global quiesce of the original protocol is gone
  // and N flush rounds no longer interlock.
  stage = sp.begin_span(mig_ctx, "mpvm.flush", src.name(), victim.raw());
  std::vector<pvm::Task*> others;
  for (const std::int32_t peer : t->peers()) {
    pvm::Task* other = vm_->find_logical(pvm::Tid(peer));
    if (other != nullptr && other != t && !other->exited())
      others.push_back(other);
  }
  std::sort(others.begin(), others.end(),
            [](const pvm::Task* a, const pvm::Task* b) {
              return a->tid().raw() < b->tid().raw();
            });

  pf->expected = static_cast<int>(others.size());
  sp.annotate(stage, "scope", std::to_string(others.size()));
  vm_->metrics()
      .histogram("mpvm.flush.scope")
      .record(static_cast<double>(others.size()));
  pf->all_acked = std::make_unique<sim::Trigger>(eng);
  if (!others.empty()) {
    for (pvm::Task* other : others) {
      pvm::Buffer b;
      b.pk_int(victim.raw());
      b.pk_int(pf->seq);
      t->runtime_send(other->tid(), kTagFlush, std::move(b));
    }
    bool flushed = pf->received() >= pf->expected ||
                   co_await pf->all_acked->wait_for(timeouts_.flush_ack);
    if (pf->abort_requested)
      co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                                "aborted: " + pf->abort_reason, mig, stage);
    if (!flushed && !t->exited() && src.up()) {
      // A single dropped datagram must not cost the whole migration: re-send
      // the flush to the peers still missing and grant one more ack window
      // before charging the stage deadline for real.
      vm_->metrics().counter("mpvm.flush.retries").inc();
      const obs::SpanId rt = sp.event(sp.context_of(stage), "mpvm.flush.retry",
                                      src.name(), victim.raw());
      sp.annotate(rt, "acks", std::to_string(pf->received()) + "/" +
                                  std::to_string(pf->expected));
      for (pvm::Task* other : others) {
        if (other->exited() || pf->acked.contains(other->tid().raw()))
          continue;
        pvm::Buffer b;
        b.pk_int(victim.raw());
        b.pk_int(pf->seq);
        t->runtime_send(other->tid(), kTagFlush, std::move(b));
      }
      flushed = pf->received() >= pf->expected ||
                co_await pf->all_acked->wait_for(timeouts_.flush_ack);
      if (pf->abort_requested)
        co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                                  "aborted: " + pf->abort_reason, mig, stage);
    }
    if (!flushed) {
      co_return abort_migration(
          t, victim, others, frozen_burst, src, stats,
          "flush acks timed out (" + std::to_string(pf->received()) + "/" +
              std::to_string(pf->expected) + " after retry, " +
              std::to_string(timeouts_.flush_ack) + " s per window)",
          mig, stage);
    }
  }
  if (t->exited() || !src.up())
    co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                              !src.up() ? "source host crashed during flush"
                                        : "task died during flush",
                              mig, stage);
  stats.flush_done = eng.now();
  sp.annotate(stage, "acks", std::to_string(pf->expected));
  sp.end_span(stage, obs::SpanStatus::kOk);
  stage = 0;
  notify_stage(victim, MigrationStage::kFlushed);
  if (t->exited() || !src.up() || !dst.up())
    co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                              !dst.up() ? "destination host down after flush"
                                        : "source side died after flush",
                              mig);

  // ---- Stage 3: state transfer to the skeleton ----------------------------
  stage = sp.begin_span(mig_ctx, "mpvm.transfer", src.name(), victim.raw());
  if (precopy_stream == nullptr) {
    co_await sim::Delay(eng, mc.skeleton_start);  // fork+exec on `dst`
    if (!dst.up() || !src.up() || t->exited())
      co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                                "host crashed during skeleton start", mig,
                                stage);
    if (skeleton_spawn_hook_ && !skeleton_spawn_hook_(victim, dst))
      co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                                "skeleton spawn failed on " + dst.name(), mig,
                                stage);
  }
  stats.state_bytes =
      t->process().image().migratable_bytes() + t->mailbox().total_bytes();
  // With a completed pre-copy the skeleton already holds the image: only
  // the dirty residue plus the queued messages cross under freeze.
  stats.residue_bytes =
      precopy_stream != nullptr
          ? precopy_residue + t->mailbox().total_bytes()
          : stats.state_bytes;
  // Stream the image in chunks; reading it out of the source address space
  // and placing it into the skeleton costs copy work on top of wire time.
  // A crashed endpoint stalls the stream until it throws DeliveryError; the
  // transfer deadline bounds the whole stage either way.
  const sim::Time transfer_deadline = eng.now() + timeouts_.transfer;
  std::string transfer_failure;
  try {
    // NOTE: keep the co_await out of any larger expression (no ternary):
    // gcc mismanages the lifetime of the materialized temporary across the
    // suspend point and the stream's refcount hits zero while in use.
    std::shared_ptr<net::TcpStream> stream = precopy_stream;
    if (stream == nullptr)
      stream = co_await net::TcpStream::connect(vm_->network(), src.node(),
                                                dst.node());
    std::size_t remaining = stats.residue_bytes;
    while (remaining > 0) {
      if (pf->abort_requested) {
        transfer_failure = "aborted: " + pf->abort_reason;
        break;
      }
      const std::size_t chunk = std::min(kTransferChunkBytes, remaining);
      co_await sim::Delay(
          eng, static_cast<double>(chunk) * 8.0 / mc.state_copy_bps);
      co_await stream->send(src.node(), chunk);
      remaining -= chunk;
      if (eng.now() > transfer_deadline) {
        transfer_failure = "state transfer deadline exceeded (" +
                           std::to_string(timeouts_.transfer) + " s)";
        break;
      }
    }
  } catch (const net::DeliveryError& e) {
    transfer_failure = std::string("state transfer failed: ") + e.what();
  }
  if (transfer_failure.empty() && (!dst.up() || !src.up() || t->exited()))
    transfer_failure = "host crashed during state transfer";
  if (!transfer_failure.empty())
    co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                              transfer_failure, mig, stage);
  stats.transfer_done = eng.now();
  sp.annotate(stage, "bytes", std::to_string(stats.state_bytes));
  if (precopy_stream != nullptr)
    sp.annotate(stage, "residue", std::to_string(stats.residue_bytes));
  sp.end_span(stage, obs::SpanStatus::kOk);
  stage = 0;
  notify_stage(victim, MigrationStage::kTransferred);
  // The state reached the skeleton, but the process has not moved yet: a
  // destination lost at this instant still rolls back cleanly.
  if (!dst.up() || !src.up() || t->exited())
    co_return abort_migration(t, victim, others, frozen_burst, src, stats,
                              "destination lost after state transfer", mig);

  // The skeleton has assumed the state: physically move the process.
  {
    std::unique_ptr<os::Process> proc = src.release(t->process().pid());
    CPE_ASSERT(proc != nullptr);
    dst.adopt(std::move(proc));
  }

  // ---- Stage 4: restart ----------------------------------------------------
  // Past the point of no return: the process now lives at the destination,
  // so a crash there kills the task (no source copy remains to roll back to).
  stage = sp.begin_span(mig_ctx, "mpvm.restart", dst.name(), victim.raw());
  co_await sim::Delay(eng, mc.reenroll);
  if (t->exited() || !dst.up()) {
    for (pvm::Task* other : others)
      if (!other->exited()) other->send_gate(victim).open();
    stats.ok = false;
    stats.failure = "destination crashed during restart; task lost";
    vm_->metrics().counter("mpvm.migrations.failed").inc();
    // No rollback is possible here (the source copy is gone): the span tree
    // closes aborted with lost=1, which the auditor accepts in lieu of a
    // rollback/recovery child.
    sp.end_span(stage, obs::SpanStatus::kAborted);
    sp.annotate(mig, "lost", "1");
    sp.end_span(mig, obs::SpanStatus::kAborted);
    t->clear_trace_context();
    notify_stage(victim, MigrationStage::kFailed);
    co_return stats;
  }
  // Only the flush scope hears the restart.  The fencing epoch it carries
  // also rides every later residual route update, so mappings from
  // superseded migrations can never regress a peer's view.
  const Reenrollment re = reenroll(*vm_, *t, dst, others);
  sp.annotate(mig, "mig_epoch", std::to_string(re.epoch));
  // Arm the old host's forwarding stub: messages from tasks outside the
  // flush scope that raced the move bounce off it to the new home, and each
  // such sender is taught the new mapping (on_residual_forward).
  {
    Residual r;
    r.ctx = mig_ctx;
    r.fresh = re.fresh;
    r.epoch = re.epoch;
    r.expires = eng.now() + tuning_.residual_window;
    residuals_[victim.raw()] = std::move(r);
  }
  co_await sim::Delay(eng, mc.restart_fixed);
  // Resume the frozen burst on the destination CPU.
  if (!t->exited() && dst.up() && frozen_burst && !frozen_burst->done)
    dst.cpu().adopt(frozen_burst);
  stats.restart_done = eng.now();
  sp.annotate(stage, "new_tid", re.fresh.str());
  sp.end_span(stage, obs::SpanStatus::kOk);
  sp.end_span(mig, obs::SpanStatus::kOk);
  t->clear_trace_context();
  {
    // The four-stage latency breakdown (Tables 1/2): one histogram per
    // protocol stage, recorded only for completed migrations so aborted
    // attempts cannot skew the per-stage distributions.
    auto& m = vm_->metrics();
    m.histogram("mpvm.stage.freeze")
        .record(stats.frozen_time - stats.event_time);
    m.histogram("mpvm.stage.flush")
        .record(stats.flush_done - stats.frozen_time);
    m.histogram("mpvm.stage.transfer")
        .record(stats.transfer_done - stats.flush_done);
    m.histogram("mpvm.stage.restart")
        .record(stats.restart_done - stats.transfer_done);
    m.histogram("mpvm.migration.time").record(stats.migration_time());
    m.histogram("mpvm.migration.bytes")
        .record(static_cast<double>(stats.state_bytes));
    m.histogram("mpvm.freeze_window").record(stats.freeze_window());
    if (stats.precopy_bytes > 0) {
      m.histogram("mpvm.stage.precopy")
          .record(stats.frozen_time - stats.event_time);
      m.histogram("mpvm.precopy.bytes")
          .record(static_cast<double>(stats.precopy_bytes));
      m.histogram("mpvm.residue.bytes")
          .record(static_cast<double>(stats.residue_bytes));
    }
    m.counter("mpvm.migrations.completed").inc();
  }
  history_.push_back(stats);
  notify_stage(victim, MigrationStage::kRestarted);
  co_return stats;
}

}  // namespace cpe::mpvm
