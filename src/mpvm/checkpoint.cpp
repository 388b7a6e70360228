#include "mpvm/checkpoint.hpp"

#include "net/tcp.hpp"

namespace cpe::mpvm {

namespace {
/// Checkpoint server write rate (1994 disk behind the server).
constexpr double kServerDiskBps = 2e6 * 8;
}  // namespace

Checkpointer::Checkpointer(pvm::PvmSystem& vm, os::Host& server,
                           CheckpointOptions options)
    : vm_(&vm), server_(&server), options_(options) {
  CPE_EXPECTS(options.interval > 0);
}

void Checkpointer::watch(pvm::Tid task) {
  pvm::Task* t = vm_->find_logical(task);
  CPE_EXPECTS(t != nullptr);
  auto& slot = watches_[task.raw()];
  CPE_EXPECTS(slot == nullptr);  // one watcher per task
  slot = std::make_unique<Watch>();
  slot->stats.task = task;
  // A crash strands a watched process instead of killing it; its image is
  // safe on the server and recover() brings it back elsewhere.
  t->process().set_crash_recoverable(true);
  slot->loop =
      sim::launch(vm_->engine(), checkpoint_loop(task, slot.get()));
}

const CheckpointStats* Checkpointer::stats_for(pvm::Tid task) const {
  auto it = watches_.find(task.raw());
  return it == watches_.end() ? nullptr : &it->second->stats;
}

sim::Co<void> Checkpointer::checkpoint_loop(pvm::Tid task, Watch* w) {
  sim::Engine& eng = vm_->engine();
  for (;;) {
    co_await sim::Delay(eng, options_.interval);
    pvm::Task* t = vm_->find_logical(task);
    if (t == nullptr || t->exited()) co_return;
    // Skip the interval while the task's host or the server is unreachable;
    // the stranded task is not making progress anyway.
    if (!t->pvmd().host().up() || t->pvmd().host().frozen() || !server_->up())
      continue;
    co_await write_checkpoint(*t, *w);
  }
}

sim::Co<void> Checkpointer::write_checkpoint(pvm::Task& t, Watch& w) {
  sim::Engine& eng = vm_->engine();
  const sim::Time start = eng.now();
  os::Host& host = t.pvmd().host();

  // The process is frozen for the duration of the write (Condor semantics).
  std::shared_ptr<os::CpuJob> burst = t.process().active_burst;
  if (burst && burst->scheduler != nullptr)
    burst->scheduler->detach(burst);

  const std::size_t bytes = t.process().image().migratable_bytes();
  bool failed = false;
  try {
    auto stream = co_await net::TcpStream::connect(vm_->network(),
                                                   host.node(),
                                                   server_->node());
    co_await stream->send(host.node(), bytes);
  } catch (const net::DeliveryError&) {
    // A crash mid-write: the partial checkpoint is discarded, the previous
    // one stays valid.  Try again next interval.
    failed = true;
  }
  if (!failed) {
    // Server-side disk write, overlapping nothing (1994 checkpoint servers).
    co_await sim::Delay(eng, static_cast<double>(bytes) * 8.0 /
                                 kServerDiskBps);
  }

  // Resume the frozen burst — unless something else (a concurrent MPVM
  // migration, a host crash) already re-homed or detached it while writing.
  if (burst && !burst->done && burst->scheduler == nullptr &&
      t.process().active_burst == burst && t.pvmd().host().up())
    t.pvmd().host().cpu().adopt(burst);
  if (failed) {
    vm_->metrics().counter("ckpt.failed").inc();
    co_return;
  }
  w.burst_at_ckpt = burst;
  w.consumed_at_ckpt = burst ? burst->consumed : 0;
  ++w.stats.checkpoints_taken;
  w.stats.total_checkpoint_time += eng.now() - start;
  w.stats.last_checkpoint_at = eng.now();
}

sim::Co<CkptVacateStats> Checkpointer::vacate_restart(pvm::Tid task,
                                                      os::Host& dst) {
  sim::Engine& eng = vm_->engine();
  pvm::Task* t = vm_->find_logical(task);
  if (t == nullptr || t->exited())
    throw Error("checkpoint: no such task: " + task.str());
  auto wit = watches_.find(task.raw());
  CPE_EXPECTS(wit != watches_.end());  // must be watched to restart
  Watch& w = *wit->second;
  os::Host& src = t->pvmd().host();
  if (!src.migration_compatible_with(dst))
    throw Error("checkpoint: incompatible restart host " + dst.name());

  CkptVacateStats stats;
  stats.task = task;
  stats.from_host = src.name();
  stats.to_host = dst.name();
  stats.event_time = eng.now();
  stats.image_bytes = t->process().image().migratable_bytes();

  // --- Kill: this is all the source host ever sees.  -----------------------
  co_await sim::Delay(eng, src.config().signal_latency);
  std::shared_ptr<os::CpuJob> burst = t->process().active_burst;
  if (burst && burst->scheduler != nullptr)
    burst->scheduler->detach(burst);
  stats.killed_time = eng.now();

  // --- Restart on `dst` from the last checkpoint.  -------------------------
  // Fetch the image from the checkpoint server.
  auto stream = co_await net::TcpStream::connect(vm_->network(),
                                                 server_->node(), dst.node());
  co_await stream->send(server_->node(), stats.image_bytes);
  restart(*t, w, src, dst, burst, stats);
  co_return stats;
}

sim::Co<CkptVacateStats> Checkpointer::recover(
    pvm::Tid task, os::Host& dst, std::optional<std::uint64_t> epoch,
    obs::TraceContext ctx) {
  sim::Engine& eng = vm_->engine();
  obs::SpanTracer& sp = vm_->spans();
  // Fencing: a recovery ordered by a deposed leader is refused before any
  // state is touched, exactly like a stale migrate (mpvm.cpp).
  if (fence_ && epoch && !fence_->admit(*epoch)) {
    const obs::SpanId fenced =
        sp.begin_span(ctx, "ckpt.recover", dst.name(), task.raw());
    sp.annotate(fenced, "task", task.str());
    sp.annotate(fenced, "epoch", std::to_string(*epoch));
    sp.annotate(fenced, "floor", std::to_string(fence_->floor()));
    sp.end_span(fenced, obs::SpanStatus::kFenced);
    throw Error("checkpoint: recover " + task.str() +
                " fenced: stale epoch " + std::to_string(*epoch) + " < " +
                std::to_string(fence_->floor()));
  }
  // One recovery per task at a time: a new leader re-detecting the crash
  // while its predecessor's recovery is still on the wire must not start a
  // second resurrection of the same process.
  if (!recovering_.insert(task.raw()).second)
    throw Error("checkpoint: recovery of " + task.str() +
                " already in flight");
  sim::ScopeExit done([this, task] { recovering_.erase(task.raw()); });
  pvm::Task* t = vm_->find_logical(task);
  if (t == nullptr || t->exited())
    throw Error("checkpoint: no such task: " + task.str());
  auto wit = watches_.find(task.raw());
  CPE_EXPECTS(wit != watches_.end());  // must be watched to recover
  Watch& w = *wit->second;
  os::Host& src = t->pvmd().host();
  CPE_EXPECTS(!src.up());  // recover() is for crash-stranded tasks
  if (!src.migration_compatible_with(dst))
    throw Error("checkpoint: incompatible restart host " + dst.name());
  if (!dst.up() || !server_->up())
    throw Error("checkpoint: cannot recover " + task.str() + ": " +
                (dst.up() ? "server" : dst.name()) + " is down");

  CkptVacateStats stats;
  stats.task = task;
  stats.from_host = src.name();
  stats.to_host = dst.name();
  stats.event_time = eng.now();
  stats.image_bytes = t->process().image().migratable_bytes();
  // No kill stage: the crash already stopped the task (and Host::crash
  // detached its burst).
  stats.killed_time = eng.now();
  std::shared_ptr<os::CpuJob> burst = t->process().active_burst;

  const obs::SpanId rec =
      sp.begin_span(ctx, "ckpt.recover", dst.name(), task.raw());
  sp.annotate(rec, "task", task.str());
  sp.annotate(rec, "from", src.name());
  sp.annotate(rec, "to", dst.name());
  if (epoch) sp.annotate(rec, "epoch", std::to_string(*epoch));
  try {
    // Fetch the image from the checkpoint server onto the new host.
    auto stream = co_await net::TcpStream::connect(vm_->network(),
                                                   server_->node(),
                                                   dst.node());
    co_await stream->send(server_->node(), stats.image_bytes);

    // The fetch yielded: re-validate before touching the process — the task
    // may have exited or been re-homed by another path while the image was
    // on the wire.  (A rebooted source is fine: its stranded processes stay
    // stranded until a recovery release()s them.)
    t = vm_->find_logical(task);
    if (t == nullptr || t->exited())
      throw Error("checkpoint: " + task.str() + " exited during recovery");
    if (&t->pvmd().host() != &src)
      throw Error("checkpoint: " + task.str() + " is no longer stranded on " +
                  src.name());
  } catch (...) {
    sp.end_span(rec, obs::SpanStatus::kAborted);
    throw;
  }

  restart(*t, w, src, dst, burst, stats);
  sp.annotate(rec, "redo_work", std::to_string(stats.redo_work));
  sp.end_span(rec, obs::SpanStatus::kOk);
  vm_->metrics().counter("ckpt.recoveries").inc();
  vm_->metrics()
      .histogram("ckpt.recovery.time")
      .record(stats.restart_done - stats.event_time);
  vm_->metrics().histogram("ckpt.recovery.redo_work").record(stats.redo_work);
  co_return stats;
}

void Checkpointer::restart(pvm::Task& t, const Watch& w, os::Host& src,
                           os::Host& dst,
                           const std::shared_ptr<os::CpuJob>& burst,
                           CkptVacateStats& stats) {
  // Lost work: everything the burst consumed since its covering checkpoint
  // is re-executed (the idempotency restriction §5.0).
  if (burst) {
    const bool same_burst = w.burst_at_ckpt.lock() == burst;
    stats.redo_work =
        same_burst ? burst->consumed - w.consumed_at_ckpt : burst->consumed;
    burst->remaining += stats.redo_work;
  }
  // Physically move the process, re-enroll it, announce it to every other
  // task (a checkpoint knows no correspondent set), and resume.
  {
    std::unique_ptr<os::Process> proc = src.release(t.process().pid());
    CPE_ASSERT(proc != nullptr);
    dst.adopt(std::move(proc));
  }
  reenroll(*vm_, t, dst, vm_->all_tasks());
  if (burst && !burst->done && burst->scheduler == nullptr)
    dst.cpu().adopt(burst);
  stats.restart_done = vm_->engine().now();
  history_.push_back(stats);
}

}  // namespace cpe::mpvm
