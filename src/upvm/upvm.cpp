#include "upvm/upvm.hpp"

#include <sstream>

#include "obs/metrics.hpp"

namespace cpe::upvm {

namespace {
/// Deadlines for the blocking migration stages; on expiry the ULP move is
/// aborted and the ULP stays runnable at the source.  The accept deadline is
/// generous: the unoptimized accept path costs several reference-seconds
/// (§4.2.3) and shares the destination CPU.
constexpr sim::Time kFlushAckTimeout = 5.0;
constexpr sim::Time kAcceptTimeout = 120.0;

/// ULPs carry virtualized application tids; the UPVM library maps them to
/// the container task that currently hosts the ULP (§4.2.1 "the mapping of
/// application tids into actual tids").  Host index 600 can never collide
/// with a real daemon.
pvm::Tid ulp_vtid(int inst) {
  return inst < 0 ? pvm::Tid() : pvm::Tid::make(600, static_cast<std::uint32_t>(inst));
}
std::int32_t ulp_filter(int inst) {
  return inst < 0 ? pvm::kAny : ulp_vtid(inst).raw();
}
}  // namespace

// ---------------------------------------------------------------------------
// Ulp
// ---------------------------------------------------------------------------

Ulp::Ulp(Upvm& sys, int inst, VaRegion region)
    : sys_(&sys),
      inst_(inst),
      region_(region),
      mailbox_(sys.vm().engine()),
      runnable_gate_(sys.vm().engine(), /*open=*/true),
      burst_done_(sys.vm().engine()) {}

int Ulp::nulps() const noexcept { return sys_->nulps(); }

os::Host& Ulp::host() const noexcept { return container_->host(); }

void Ulp::set_data_bytes(std::size_t n) {
  data_bytes_ = n;
  CPE_EXPECTS(image_bytes() <= region_.size);  // must fit the VA region
}

void Ulp::set_heap_bytes(std::size_t n) {
  heap_bytes_ = n;
  CPE_EXPECTS(image_bytes() <= region_.size);
}

pvm::Buffer& Ulp::initsend(pvm::Encoding enc) {
  sbuf_ = std::make_unique<pvm::Buffer>(enc);
  return *sbuf_;
}

pvm::Buffer& Ulp::sbuf() {
  CPE_EXPECTS(sbuf_ != nullptr);
  return *sbuf_;
}

pvm::Buffer& Ulp::rbuf() {
  CPE_EXPECTS(rbuf_ != nullptr);
  return *rbuf_;
}

sim::Co<void> Ulp::send(int dst_inst, int tag) {
  CPE_EXPECTS(sbuf_ != nullptr);
  auto body = std::make_shared<const pvm::Buffer>(std::move(*sbuf_));
  sbuf_ = std::make_unique<pvm::Buffer>(body->encoding());
  co_await runnable_gate_.wait();
  co_await sys_->route_ulp(*this, dst_inst, tag, std::move(body),
                           next_seq_[dst_inst]++);
}

sim::Co<pvm::Message> Ulp::recv(int src_inst, int tag) {
  const auto& pc = sys_->vm().costs().pvm;
  co_await runnable_gate_.wait();
  co_await host().cpu().compute(pc.call_overhead + pc.recv_fixed);
  // Blocking on receive de-schedules the ULP (§2.2): the cpu token is not
  // held, so co-resident runnable ULPs proceed.
  pvm::Message m = co_await mailbox_.take(ulp_filter(src_inst), tag);
  co_await runnable_gate_.wait();  // a migration may have frozen us mid-wait
  const auto& uc = sys_->vm().costs().upvm;
  co_await host().cpu().compute(
      uc.ulp_context_switch +
      static_cast<double>(m.payload_bytes()) * 8.0 / pc.unpack_bps);
  rbuf_ = std::make_unique<pvm::Buffer>(*m.body);
  co_return m;
}

std::optional<pvm::Message> Ulp::nrecv(int src_inst, int tag) {
  auto m = mailbox_.try_take(ulp_filter(src_inst), tag);
  if (m.has_value()) rbuf_ = std::make_unique<pvm::Buffer>(*m->body);
  return m;
}

struct Ulp::BurstAwait {
  explicit BurstAwait(Ulp& u) : u_(&u) {}
  BurstAwait(const BurstAwait&) = delete;
  BurstAwait& operator=(const BurstAwait&) = delete;
  ~BurstAwait() {
    if (u_->active_burst_await_ == this) u_->active_burst_await_ = nullptr;
    if (u_->burst_ && !u_->burst_->done &&
        u_->burst_->scheduler != nullptr)
      u_->burst_->scheduler->detach(u_->burst_);
    u_->burst_.reset();
    u_->sys_->vm().engine().cancel(resume_ev_);
  }

  [[nodiscard]] bool await_ready() const noexcept {
    return u_->pending_work_ <= 0;
  }
  void await_suspend(std::coroutine_handle<> h) {
    h_ = h;
    u_->burst_ = u_->host().cpu().start(u_->pending_work_, h);
    u_->active_burst_await_ = this;
  }
  void await_resume() noexcept {
    if (!interrupted_) u_->pending_work_ = 0;
    u_->active_burst_await_ = nullptr;
    u_->burst_.reset();
    u_->burst_done_.fire();  // safe-point reached
  }

  /// Migration stage 1: capture the register context mid-burst.  Remaining
  /// work is saved and the compute loop re-parks behind the runnable gate.
  void interrupt() {
    CPE_ASSERT(u_->burst_ && u_->burst_->scheduler != nullptr);
    u_->burst_->scheduler->detach(u_->burst_);
    u_->pending_work_ = u_->burst_->remaining;
    interrupted_ = true;
    sim::Engine& eng = u_->sys_->vm().engine();
    resume_ev_ = eng.schedule_at(eng.now(), [h = h_] { h.resume(); });
  }

 private:
  Ulp* u_;
  std::coroutine_handle<> h_{};
  bool interrupted_ = false;
  sim::EventId resume_ev_{};
};

sim::Co<void> Ulp::compute(double ref_seconds) {
  CPE_EXPECTS(ref_seconds >= 0);
  CPE_EXPECTS(pending_work_ <= 1e-12);  // ULP mains are sequential
  pending_work_ = ref_seconds;
  const auto& uc = sys_->vm().costs().upvm;
  sim::Engine& eng = sys_->vm().engine();
  while (pending_work_ > 1e-12) {
    co_await runnable_gate_.wait();
    UlpProcess* p = container_;
    co_await p->cpu_token().acquire();
    sim::ScopeExit release([p] { p->cpu_token().release(); });
    // The token may be stale: we migrated (or were frozen) while queued.
    if (container_ != p || !runnable_gate_.is_open()) continue;
    co_await sim::Delay(eng, uc.ulp_context_switch);
    BurstAwait burst(*this);
    co_await burst;
  }
}

sim::Co<void> Ulp::yield() {
  const auto& uc = sys_->vm().costs().upvm;
  co_await sim::Delay(sys_->vm().engine(), uc.ulp_context_switch);
  co_await runnable_gate_.wait();
}

void Ulp::freeze() {
  runnable_gate_.close();
  if (active_burst_await_ != nullptr) active_burst_await_->interrupt();
}

sim::Co<void> Ulp::freeze_at_safe_point() {
  runnable_gate_.close();
  while (active_burst_await_ != nullptr) co_await burst_done_.wait();
}

void Ulp::thaw() { runnable_gate_.open(); }

// ---------------------------------------------------------------------------
// UlpProcess
// ---------------------------------------------------------------------------

UlpProcess::UlpProcess(Upvm& sys, pvm::Task& task)
    : sys_(&sys), task_(&task), cpu_token_(sys.vm().engine(), 1) {}

// ---------------------------------------------------------------------------
// Upvm
// ---------------------------------------------------------------------------

Upvm::Upvm(pvm::PvmSystem& vm, UpvmOptions options)
    : vm_(&vm),
      options_(options),
      va_map_(options.va_budget, options.region_size),
      all_done_(vm.engine()),
      shutdown_(vm.engine(), /*open=*/false) {
  vm.register_program("upvm_container",
                      [this](pvm::Task&) -> sim::Co<void> {
                        co_await shutdown_.wait();
                      });
}

Upvm::~Upvm() {
  // Halt ULP mains and container programs before members (the shutdown
  // gate, the ULP mailboxes) are destroyed under their parked coroutines.
  for (auto& u : ulps_) u->main_.abort();
  for (auto& c : containers_) c->task().process().kill();
}

sim::Co<void> Upvm::start() {
  CPE_EXPECTS(containers_.empty());
  for (const auto& d : vm_->daemons()) {
    std::vector<pvm::Tid> tids =
        co_await vm_->spawn("upvm_container", 1, d->host().name());
    pvm::Task* t = vm_->find_logical(tids[0]);
    CPE_ASSERT(t != nullptr);
    containers_.push_back(std::make_unique<UlpProcess>(*this, *t));
    UlpProcess* c = containers_.back().get();
    t->set_control_handler(kTagUlpMsg, [this, c](pvm::Message m) {
      dispatch_transport(*c, m);
    });
    t->set_control_handler(kTagUlpFlush, [this, c](pvm::Message m) {
      // Redirection already took effect (the location table flipped at
      // freeze); acknowledge so the source knows our in-flight messages
      // have drained ahead of this ack on the FIFO channel.
      pvm::Buffer ack;
      ack.pk_int(m.body ? pvm::Buffer(*m.body).upk_int() : -1);
      c->task().runtime_send(m.src, kTagUlpFlushAck, std::move(ack));
    });
    t->set_control_handler(kTagUlpFlushAck, [this](pvm::Message m) {
      pvm::Buffer b(*m.body);
      auto it = pending_.find(b.upk_int());
      if (it == pending_.end()) return;
      if (++it->second->received >= it->second->expected)
        it->second->all_acked->fire();
    });
    t->set_control_handler(kTagUlpState, [](pvm::Message) {
      // The image lands first; acceptance is driven by the trailing
      // buffers message (FIFO guarantees it arrives last).
    });
    t->set_control_handler(kTagUlpBuffers, [this, c](pvm::Message m) {
      auto* accept = std::any_cast<std::shared_ptr<
          std::function<void(UlpProcess&)>>>(&m.aux);
      CPE_ASSERT(accept != nullptr);
      (**accept)(*c);
    });
  }
}

std::vector<Ulp*> Upvm::run_spmd(UlpMain main, int nulps) {
  CPE_EXPECTS(!containers_.empty());  // start() first
  CPE_EXPECTS(ulps_.empty());         // one SPMD application per Upvm
  CPE_EXPECTS(nulps > 0);
  spmd_main_ = std::move(main);

  std::vector<Ulp*> out;
  for (int i = 0; i < nulps; ++i) {
    const VaRegion region = va_map_.allocate();
    auto ulp = std::make_unique<Ulp>(*this, i, region);
    UlpProcess* c = containers_[static_cast<std::size_t>(i) %
                                containers_.size()].get();
    ulp->container_ = c;
    ++c->residents_;
    note_runqueue(*c);
    out.push_back(ulp.get());
    ulps_.push_back(std::move(ulp));
  }
  note_va_usage();
  // Launch after all ULPs exist so early senders can resolve instances.
  for (auto& u : ulps_) {
    auto wrapper = [](Upvm* sys, Ulp* ulp, UlpMain fn) -> sim::Co<void> {
      co_await fn(*ulp);
      ulp->done_ = true;
      // Teardown reclaims the VA region: without this, create/exit churn
      // exhausts the §3.2.2 budget even while few ULPs are live.
      sys->va_map_.release(ulp->region());
      sys->note_va_usage();
      sys->on_ulp_done();
    };
    u->main_ = sim::launch(vm_->engine(), wrapper(this, u.get(), spmd_main_));
  }
  return out;
}

Ulp* Upvm::ulp(int inst) const {
  if (inst < 0 || inst >= nulps()) return nullptr;
  return ulps_[static_cast<std::size_t>(inst)].get();
}

sim::Co<void> Upvm::wait_all_ulps() {
  while (ulps_done_ < nulps()) co_await all_done_.wait();
}

void Upvm::on_ulp_done() {
  if (++ulps_done_ >= nulps()) all_done_.fire();
}

void Upvm::note_runqueue(const UlpProcess& c) {
  vm_->metrics()
      .gauge("upvm.runqueue." + c.host().name())
      .set(static_cast<double>(c.resident_ulps()));
}

void Upvm::note_va_usage() {
  auto& m = vm_->metrics();
  m.gauge("upvm.va.allocated").set(static_cast<double>(va_map_.allocated()));
  m.gauge("upvm.va.carved").set(static_cast<double>(va_map_.carved()));
}

UlpProcess* Upvm::container_on(const os::Host& host) const {
  for (const auto& c : containers_)
    if (&c->host() == &host) return c.get();
  return nullptr;
}

sim::Co<void> Upvm::route_ulp(Ulp& from, int dst_inst, int tag,
                              std::shared_ptr<const pvm::Buffer> b,
                              std::uint64_t seq) {
  Ulp* dst = ulp(dst_inst);
  if (dst == nullptr)
    throw Error("upvm: send to unknown ULP instance " +
                std::to_string(dst_inst));
  const auto& pc = vm_->costs().pvm;
  const auto& uc = vm_->costs().upvm;
  UlpProcess* fc = from.container_;

  if (dst->container_ == fc) {
    if (options_.disable_local_handoff) {
      // Ablation A3: behave like stock PVM's local route — the sender pays
      // the socket-write copy on its own critical path, and delivery goes
      // through the daemon.
      co_await fc->host().cpu().compute(
          pc.local_send_cpu +
          static_cast<double>(b->bytes()) * 8.0 / pc.local_route_bps);
      co_await sim::Delay(vm_->engine(),
                          pc.local_route_fixed +
                              static_cast<double>(b->bytes()) * 8.0 /
                                  pc.local_route_bps);
    } else {
      // Intra-process: the library hands the buffer to the destination ULP
      // without copying (§4.2.1).
      co_await sim::Delay(vm_->engine(), uc.local_handoff);
    }
    pvm::Message m(ulp_vtid(from.inst_), ulp_vtid(dst_inst), tag,
                   std::move(b), seq);
    dst->mailbox_.push(std::move(m));
    co_return;
  }

  // Remote: pack + regular PVM transport, plus the UPVM header that makes
  // remote communication "marginally slower" than MPVM's (§4.2.1).
  co_await fc->host().cpu().compute(
      pc.send_fixed + static_cast<double>(b->bytes()) * 8.0 / pc.pack_bps);
  fc->task().runtime_send_ex(dst->container_->task().tid(), kTagUlpMsg,
                             std::move(b),
                             UlpHeader(from.inst_, dst_inst, tag, seq),
                             uc.remote_extra_header);
}

void Upvm::dispatch_transport(UlpProcess& at, const pvm::Message& m) {
  const auto* hdr = std::any_cast<UlpHeader>(&m.aux);
  CPE_ASSERT(hdr != nullptr);
  Ulp* dst = ulp(hdr->dst_inst);
  if (dst == nullptr) {
    vm_->metrics().counter("upvm.messages_dropped").inc();
    return;
  }
  if (dst->container_ != &at) {
    // The ULP migrated while this message was in flight: forward it.
    at.task().runtime_send_ex(dst->container_->task().tid(), kTagUlpMsg,
                              m.body, *hdr, m.extra_bytes);
    return;
  }
  pvm::Message deliver(ulp_vtid(hdr->src_inst), ulp_vtid(hdr->dst_inst),
                       hdr->tag, m.body, hdr->seq);
  dst->mailbox_.push(std::move(deliver));
}

sim::Co<UlpMigrationStats> Upvm::migrate_ulp(
    int inst, os::Host& dst, std::optional<std::uint64_t> epoch,
    obs::TraceContext ctx) {
  sim::Engine& eng = vm_->engine();
  const auto& uc = vm_->costs().upvm;
  obs::SpanTracer& sp = vm_->spans();

  // Fencing: refuse a deposed leader's command before touching the ULP.
  if (fence_ && epoch && !fence_->admit(*epoch)) {
    vm_->metrics().counter("upvm.fenced").inc();
    Ulp* fu = ulp(inst);
    const std::string fenced_host =
        fu != nullptr ? fu->host().name() : std::string("gs");
    const obs::SpanId fenced =
        sp.begin_span(ctx, "upvm.migrate", fenced_host, inst);
    sp.annotate(fenced, "ulp", std::to_string(inst));
    sp.annotate(fenced, "epoch", std::to_string(*epoch));
    sp.annotate(fenced, "floor", std::to_string(fence_->floor()));
    sp.end_span(fenced, obs::SpanStatus::kFenced);
    throw Error("upvm: migrate ULP " + std::to_string(inst) +
                " fenced: stale epoch " + std::to_string(*epoch) + " < " +
                std::to_string(fence_->floor()));
  }

  Ulp* u = ulp(inst);
  if (u == nullptr)
    throw Error("upvm: migrate: no such ULP " + std::to_string(inst));
  if (u->done_)
    throw Error("upvm: migrate: ULP " + std::to_string(inst) +
                " already finished");
  UlpProcess* src_c = u->container_;
  UlpProcess* dst_c = container_on(dst);
  if (dst_c == nullptr)
    throw Error("upvm: migrate: no container on " + dst.name());
  if (dst_c == src_c)
    throw Error("upvm: migrate: ULP " + std::to_string(inst) +
                " already on " + dst.name());
  if (!src_c->host().migration_compatible_with(dst))
    throw Error("upvm: migrate: " + src_c->host().name() + " (" +
                src_c->host().arch() + ") -> " + dst.name() + " (" +
                dst.arch() + "): not migration compatible (§3.3)");
  if (pending_.find(inst) != pending_.end())
    throw Error("upvm: migration of ULP " + std::to_string(inst) +
                " already in progress");

  UlpMigrationStats stats;
  stats.ulp = inst;
  stats.from_host = src_c->host().name();
  stats.to_host = dst.name();
  stats.event_time = eng.now();
  // Root the move's span tree; the source container carries the context for
  // the protocol window so flush/state traffic is stamped on the wire.
  const obs::SpanId mig =
      sp.begin_span(ctx, "upvm.migrate", stats.from_host, inst);
  sp.annotate(mig, "ulp", std::to_string(inst));
  sp.annotate(mig, "from", stats.from_host);
  sp.annotate(mig, "to", stats.to_host);
  if (epoch) sp.annotate(mig, "epoch", std::to_string(*epoch));
  const obs::TraceContext mig_ctx = sp.context_of(mig);
  src_c->task().set_trace_context(mig_ctx);

  // ---- Stage 1: interrupt the process, capture the ULP context ------------
  obs::SpanId stage =
      sp.begin_span(mig_ctx, "upvm.capture", stats.from_host, inst);
  co_await sim::Delay(eng, src_c->host().config().signal_latency);
  if (options_.migrate_at_safe_points_only)
    co_await u->freeze_at_safe_point();  // DPC-style (§5.0), ablation A9
  else
    u->freeze();
  --src_c->residents_;
  note_runqueue(*src_c);
  stats.captured_time = eng.now();
  sp.end_span(stage, obs::SpanStatus::kOk);
  stage = 0;
  // Future messages go straight to the target host from here on (§2.2
  // stage 2 — in contrast to MPVM's sender blocking).
  u->container_ = dst_c;

  // Abort: undo the capture — the ULP returns to its source container and
  // is runnable again, exactly as before the event.
  auto abort_move = [&](const std::string& reason) {
    if (stage != 0) sp.end_span(stage, obs::SpanStatus::kAborted);
    const obs::SpanId rb =
        sp.event(mig_ctx, "upvm.rollback", stats.from_host, inst);
    sp.annotate(rb, "reason", reason);
    sp.end_span(mig, obs::SpanStatus::kAborted);
    u->container_ = src_c;
    ++src_c->residents_;
    note_runqueue(*src_c);
    u->thaw();
    src_c->task().clear_trace_context();
    pending_.erase(inst);
    stats.ok = false;
    stats.failure = reason;
    vm_->metrics().counter("upvm.migrations.aborted").inc();
    return stats;
  };

  // ---- Stage 2: flush ------------------------------------------------------
  stage = sp.begin_span(mig_ctx, "upvm.flush", stats.from_host, inst);
  auto& pf_slot = pending_[inst];
  pf_slot = std::make_unique<PendingFlush>();
  PendingFlush* pf = pf_slot.get();
  pf->expected = static_cast<int>(containers_.size()) - 1;
  pf->all_acked = std::make_unique<sim::Trigger>(eng);
  if (pf->expected > 0) {
    for (const auto& c : containers_) {
      if (c.get() == src_c) continue;
      pvm::Buffer b;
      b.pk_int(inst);
      src_c->task().runtime_send(c->task().tid(), kTagUlpFlush, std::move(b));
    }
    if (pf->received < pf->expected &&
        !co_await pf->all_acked->wait_for(kFlushAckTimeout)) {
      co_return abort_move("flush acks timed out (" +
                           std::to_string(pf->received) + "/" +
                           std::to_string(pf->expected) + ")");
    }
  }
  stats.flush_done = eng.now();
  sp.end_span(stage, obs::SpanStatus::kOk);
  stage = 0;
  if (!dst.up() || dst_c->task().exited())
    co_return abort_move("destination container on " + dst.name() +
                         " is gone");

  // ---- Stage 3: off-load state via pvm_pkbyte + pvm_send -------------------
  stage = sp.begin_span(mig_ctx, "upvm.offload", stats.from_host, inst);
  const std::size_t image = u->image_bytes();
  const std::size_t buffers = u->mailbox_.total_bytes();
  stats.state_bytes = image + buffers;
  co_await src_c->host().cpu().compute(
      uc.migrate_fixed +
      static_cast<double>(stats.state_bytes) * 8.0 / uc.state_pack_bps);

  // Acceptance completion is signalled back through the message itself.  The
  // aborted flag defuses a late arrival racing an accept-timeout abort: the
  // ULP already went back to the source, so the accept must not re-place it.
  auto accept_done = std::make_shared<sim::Trigger>(eng);
  auto aborted = std::make_shared<bool>(false);
  auto on_arrival = std::make_shared<std::function<void(UlpProcess&)>>(
      [this, u, inst, dst_c, image, buffers, accept_done,
       aborted](UlpProcess&) {
        auto accept = [](Upvm* sys, Ulp* ulp, UlpProcess* c,
                         std::size_t bytes, std::shared_ptr<sim::Trigger> done,
                         std::shared_ptr<bool> dead) -> sim::Co<void> {
          if (*dead) co_return;
          const auto& costs = sys->vm().costs().upvm;
          const sim::Time fixed = sys->options().optimized_accept
                                      ? costs.accept_fixed_optimized
                                      : costs.accept_fixed;
          const double bps = sys->options().optimized_accept
                                 ? costs.accept_bps_optimized
                                 : costs.accept_bps;
          // Span the destination-side placement work; a timed-out accept is
          // cancelled so abandoned placements don't skew the distribution.
          obs::StageTimer span(
              sys->vm().engine(),
              sys->vm().metrics().histogram("upvm.stage.accept_work"));
          co_await c->host().cpu().compute(
              fixed + static_cast<double>(bytes) * 8.0 / bps);
          if (*dead) {
            span.cancel();
            co_return;
          }
          ++c->residents_;
          sys->note_runqueue(*c);
          ulp->thaw();
          done->fire();
        };
        sim::spawn(vm_->engine(), accept(this, u, dst_c, image + buffers,
                                         accept_done, aborted));
      });

  src_c->task().runtime_send_ex(dst_c->task().tid(), kTagUlpState, nullptr,
                                std::any{}, image);
  src_c->task().runtime_send_ex(dst_c->task().tid(), kTagUlpBuffers, nullptr,
                                on_arrival, buffers);
  stats.offload_done = eng.now();
  sp.annotate(stage, "bytes", std::to_string(stats.state_bytes));
  sp.end_span(stage, obs::SpanStatus::kOk);
  stage = 0;

  // ---- Stage 4: accept + re-queue at the destination ----------------------
  stage = sp.begin_span(mig_ctx, "upvm.accept", stats.to_host, inst);
  if (!co_await accept_done->wait_for(kAcceptTimeout)) {
    *aborted = true;
    co_return abort_move("accept timed out on " + dst.name() + " after " +
                         std::to_string(kAcceptTimeout) + " s");
  }
  pending_.erase(inst);
  stats.accept_done = eng.now();
  sp.end_span(stage, obs::SpanStatus::kOk);
  sp.end_span(mig, obs::SpanStatus::kOk);
  src_c->task().clear_trace_context();
  {
    auto& m = vm_->metrics();
    m.histogram("upvm.stage.capture")
        .record(stats.captured_time - stats.event_time);
    m.histogram("upvm.stage.flush")
        .record(stats.flush_done - stats.captured_time);
    m.histogram("upvm.stage.offload")
        .record(stats.offload_done - stats.flush_done);
    m.histogram("upvm.stage.accept")
        .record(stats.accept_done - stats.offload_done);
    m.histogram("upvm.migration.time").record(stats.migration_time());
    m.histogram("upvm.migration.bytes")
        .record(static_cast<double>(stats.state_bytes));
    m.counter("upvm.migrations.completed").inc();
  }
  history_.push_back(stats);
  co_return stats;
}

std::string Upvm::format_address_map() const {
  std::ostringstream os;
  os << "ULP virtual-address map (region " << options_.region_size / (1 << 20)
     << " MB, budget " << options_.va_budget / (1 << 20) << " MB, max "
     << va_map_.max_ulps() << " ULPs)\n";
  for (const auto& u : ulps_) {
    const VaRegion& r = u->region();
    os << "  ULP" << u->inst() << ": [0x" << std::hex << r.base << ", 0x"
       << r.end() << ")" << std::dec << " resident on "
       << u->container().host().name() << " image=" << u->image_bytes()
       << "B\n";
  }
  os << "  (each region is reserved in every process of the application)\n";
  return os.str();
}

}  // namespace cpe::upvm
