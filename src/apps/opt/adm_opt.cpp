#include "apps/opt/adm_opt.hpp"

#include "obs/metrics.hpp"

namespace cpe::opt {

void pack_move(pvm::Buffer& b, const ExemplarSet& batch) {
  b.pk_byte(std::as_bytes(std::span(batch.flags_image())));
  b.pk_float_image(batch.image());
}

ExemplarSet unpack_move(pvm::Buffer& b) {
  std::vector<std::uint8_t> flags(b.next_count());
  b.upk_byte(std::as_writable_bytes(std::span(flags)));
  return ExemplarSet::adopt(b.upk_float_image(), std::move(flags));
}

AdmOpt::AdmOpt(pvm::PvmSystem& vm, AdmOptConfig cfg)
    : vm_(&vm),
      cfg_(std::move(cfg)),
      kernel_(cfg_.opt.real_math, cfg_.opt.workload),
      slaves_ready_(vm.engine()),
      active_(static_cast<std::size_t>(cfg_.opt.nslaves), true),
      lost_(static_cast<std::size_t>(cfg_.opt.nslaves), false),
      finished_(vm.engine()) {
  CPE_EXPECTS(cfg_.opt.nslaves >= 1);
  CPE_EXPECTS(static_cast<int>(cfg_.opt.slave_hosts.size()) ==
              cfg_.opt.nslaves);
  CPE_EXPECTS(cfg_.chunk_items > 0);
  vm.register_program("admopt_master",
                      [this](pvm::Task& t) -> sim::Co<void> {
                        co_await master_main(t);
                      });
  for (int s = 0; s < cfg_.opt.nslaves; ++s) {
    vm.register_program("admopt_slave" + std::to_string(s),
                        [this, s](pvm::Task& t) -> sim::Co<void> {
                          co_await slave_main(t, s);
                        });
  }
}

sim::Co<OptResult> AdmOpt::run() {
  std::vector<pvm::Tid> tids =
      co_await vm_->spawn("admopt_master", 1, cfg_.opt.master_host);
  master_tid_ = tids[0];
  while (!done_) co_await finished_.wait();
  co_return result_;
}

bool AdmOpt::post_event(int slave, adm::AdmEventKind kind,
                        std::optional<std::uint64_t> epoch,
                        obs::TraceContext ctx) {
  CPE_EXPECTS(slave >= 0 && slave < cfg_.opt.nslaves);
  obs::SpanTracer& sp = vm_->spans();
  // Fencing: drop a deposed leader's event instead of redistributing twice.
  if (fence_ && epoch && !fence_->admit(*epoch)) {
    vm_->metrics().counter("adm.fenced").inc();
    const obs::SpanId fenced = sp.begin_span(ctx, "adm.event", "gs", slave);
    sp.annotate(fenced, "slave", std::to_string(slave));
    sp.annotate(fenced, "epoch", std::to_string(*epoch));
    sp.annotate(fenced, "floor", std::to_string(fence_->floor()));
    sp.end_span(fenced, obs::SpanStatus::kFenced);
    return false;
  }
  pvm::Task* master = vm_->find_logical(master_tid_);
  CPE_EXPECTS(master != nullptr);
  vm_->metrics().counter("adm.events.posted").inc();
  const obs::SpanId ev = sp.event(ctx, "adm.event",
                                  master->pvmd().host().name(),
                                  master->tid().raw());
  sp.annotate(ev, "slave", std::to_string(slave));
  sp.annotate(ev, "kind", std::string(adm::to_string(kind)));
  if (epoch) sp.annotate(ev, "epoch", std::to_string(*epoch));
  // The master inherits the context: the redistribution this event triggers
  // (and everything it sends) continues the caller's trace.
  master->set_trace_context(sp.context_of(ev));
  adm::EventQueue::post(*master, slave_tid(slave),
                        adm::AdmEvent(kind, slave));
  return true;
}

std::vector<std::size_t> AdmOpt::compute_targets(std::size_t total) const {
  std::vector<double> weights(static_cast<std::size_t>(cfg_.opt.nslaves));
  for (int s = 0; s < cfg_.opt.nslaves; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const double base = cfg_.partition_weights.empty()
                            ? 1.0
                            : cfg_.partition_weights[i];
    weights[i] = active_[i] ? base : 0.0;
  }
  return adm::weighted_shares(total, weights);
}

sim::Co<void> AdmOpt::redistribute(pvm::Task& master,
                                   std::vector<std::size_t>& counts,
                                   const Network& net) {
  const auto& ac = vm_->costs().adm;
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;

  // Consensus only among the surviving slaves: one lost in a crash can
  // neither receive the repartition nor acknowledge its moves.
  std::vector<pvm::Tid> live;
  for (int s = 0; s < cfg_.opt.nslaves; ++s)
    if (!lost_[static_cast<std::size_t>(s)])
      live.push_back(slave_tids_[static_cast<std::size_t>(s)]);

  // Coordination cost: collect state, compute the partition, reach global
  // consensus that every slave enters the redistribution state (§2.3).
  obs::StageTimer round(vm_->engine(),
                        vm_->metrics().histogram("adm.redist.round"));
  vm_->metrics().counter("adm.repartitions").inc();
  // Continue the trace of the adm.event that triggered this round (a fresh
  // trace when the round is self-initiated, e.g. the initial partition).
  obs::SpanTracer& sp = vm_->spans();
  const std::string& mhost = master.pvmd().host().name();
  const obs::SpanId repart = sp.begin_span(
      master.trace_context(), "adm.repartition", mhost, master.tid().raw());
  sp.annotate(repart, "slaves", std::to_string(live.size()));
  sp.annotate(repart, "items", std::to_string(total));
  master.set_trace_context(sp.context_of(repart));
  co_await master.compute(ac.repartition_fixed);
  const std::vector<std::size_t> target = compute_targets(total);

  std::vector<std::int32_t> cur32(counts.begin(), counts.end());
  std::vector<std::int32_t> tgt32(target.begin(), target.end());
  master.initsend().pk_int(cur32);
  master.sbuf().pk_int(tgt32);
  co_await master.mcast(live, kTagRepart);

  // Global consensus: every surviving slave reports its moves complete.
  const obs::SpanId consensus = sp.begin_span(
      sp.context_of(repart), "adm.consensus", mhost, master.tid().raw());
  for (std::size_t s = 0; s < live.size(); ++s)
    co_await master.recv(pvm::kAny, kTagMoveDone);
  vm_->metrics().counter("adm.consensus.rounds").inc();
  sp.end_span(consensus, obs::SpanStatus::kOk);

  // Resume carries the current network so a slave rejoining mid-epoch can
  // take part in it.
  master.initsend().pk_float(net.weights());
  co_await master.mcast(live, kTagResume);
  counts.assign(target.begin(), target.end());
  sp.end_span(repart, obs::SpanStatus::kOk);
  master.clear_trace_context();
}

sim::Co<void> AdmOpt::master_main(pvm::Task& t) {
  sim::Engine& eng = vm_->engine();

  for (int s = 0; s < cfg_.opt.nslaves; ++s) {
    std::vector<pvm::Tid> kid = co_await t.spawn(
        "admopt_slave" + std::to_string(s), 1,
        cfg_.opt.slave_hosts[static_cast<std::size_t>(s)]);
    slave_tids_.push_back(kid[0]);
    // Watch for slaves dying in host crashes (implicit withdraw, below).
    vm_->notify_exit(t.tid(), kid[0], kTagSlaveLost);
  }
  // Clock starts once the VPs exist (see PvmOpt::master_main).
  result_.start_time = eng.now();

  std::size_t total_items = 0;
  std::vector<std::size_t> counts;
  {
    sim::Rng rng(cfg_.opt.seed);
    const ExemplarSet data =
        ExemplarSet::synthesize_bytes(cfg_.opt.data_bytes, rng);
    result_.data_checksum = data.checksum();
    total_items = data.size();
    t.process().image().data_bytes = data.bytes() + Network::bytes();

    // Pack each share by reference to the set's wire image.
    counts = adm::equal_shares(total_items,
                               static_cast<std::size_t>(cfg_.opt.nslaves));
    std::size_t first = 0;
    for (int s = 0; s < cfg_.opt.nslaves; ++s) {
      const std::size_t count = counts[static_cast<std::size_t>(s)];
      t.initsend().pk_float_image(data.image(first, count));
      first += count;
      co_await t.send(slave_tids_[static_cast<std::size_t>(s)], kTagData);
    }
  }

  Network net(cfg_.opt.seed);
  Network::CgState cg;
  std::vector<float> grad(Network::weight_count());
  std::vector<float> partial(Network::weight_count());

  // A slave lost in a host crash is an implicit withdraw: its exemplars
  // died with it, so the epoch shrinks and the run degrades to the
  // survivors instead of aborting.  Returns true on a new loss.
  auto mark_lost = [&](pvm::Tid gone) -> bool {
    for (int s = 0; s < cfg_.opt.nslaves; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (slave_tids_[i].raw() != gone.raw() || lost_[i]) continue;
      lost_[i] = true;
      active_[i] = false;
      lost_items_ += counts[i];
      total_items -= std::min(total_items, counts[i]);
      counts[i] = 0;
      return true;
    }
    return false;
  };

  for (int iter = 0; iter < cfg_.opt.iterations; ++iter) {
    // Broadcast the net to slaves that currently hold data.
    std::vector<pvm::Tid> holders;
    for (int s = 0; s < cfg_.opt.nslaves; ++s)
      if (counts[static_cast<std::size_t>(s)] > 0)
        holders.push_back(slave_tids_[static_cast<std::size_t>(s)]);
    t.initsend().pk_float(net.weights());
    co_await t.mcast(holders, kTagNet);

    // Collect gradient contributions until every exemplar of the epoch is
    // accounted for, handling redistribution requests as they arrive.
    std::fill(grad.begin(), grad.end(), 0.0f);
    std::size_t processed_total = 0;
    while (processed_total < total_items) {
      pvm::Message m = co_await t.recv(pvm::kAny, pvm::kAny);
      if (m.tag == kTagGrad) {
        t.rbuf().upk_float(partial);
        const auto count = static_cast<std::size_t>(t.rbuf().upk_int());
        for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += partial[i];
        processed_total += count;
      } else if (m.tag == kTagRedistReq) {
        const auto kind =
            static_cast<adm::AdmEventKind>(t.rbuf().upk_int());
        const int slave = t.rbuf().upk_int();
        const auto i = static_cast<std::size_t>(slave);
        if (kind == adm::AdmEventKind::kWithdraw)
          active_[i] = false;
        else if (kind == adm::AdmEventKind::kRejoin)
          active_[i] = true;
        co_await redistribute(t, counts, net);
      } else if (m.tag == kTagSlaveLost) {
        const pvm::Tid gone(t.rbuf().upk_int());
        const bool crashed = t.rbuf().upk_int() != 0;
        // Normal exits (crashed == 0) need no reaction; the final-report
        // protocol covers them.
        if (crashed && mark_lost(gone))
          co_await redistribute(t, counts, net);
      }
    }
    co_await t.compute(cfg_.opt.workload.apply_seconds);
    net.apply_cg_step(grad, cg);
    ++result_.iterations_done;
  }

  std::vector<pvm::Tid> live;
  for (int s = 0; s < cfg_.opt.nslaves; ++s)
    if (!lost_[static_cast<std::size_t>(s)])
      live.push_back(slave_tids_[static_cast<std::size_t>(s)]);
  t.initsend().pk_int(0);
  co_await t.mcast(live, kTagDone);
  // Collect final reports (data conservation check) from the survivors; a
  // slave crashing this late simply stops being expected.
  std::size_t expected = live.size();
  std::size_t reports = 0;
  while (reports < expected) {
    pvm::Message m = co_await t.recv(pvm::kAny, pvm::kAny);
    if (m.tag == kTagFinalReport) {
      final_checksum_ += static_cast<std::uint64_t>(t.rbuf().upk_long());
      final_items_ += static_cast<std::size_t>(t.rbuf().upk_int());
      ++reports;
    } else if (m.tag == kTagSlaveLost) {
      const pvm::Tid gone(t.rbuf().upk_int());
      if (t.rbuf().upk_int() != 0 && mark_lost(gone) && expected > 0)
        --expected;
    }
    // Anything else (a stale gradient flushed just before kTagDone) is
    // simply drained.
  }
  result_.end_time = eng.now();
  result_.net_checksum = net.checksum();
  done_ = true;
  finished_.fire();
}

sim::Co<void> AdmOpt::do_moves(pvm::Task& t, int me, ExemplarSet& mine,
                               std::span<const std::size_t> current,
                               std::span<const std::size_t> target) {
  const auto& ac = vm_->costs().adm;
  const std::vector<adm::Transfer> plan = adm::plan_moves(current, target);
  for (const adm::Transfer& mv : plan) {
    if (mv.from == me) {
      ExemplarSet batch = mine.take_back(mv.count);
      pack_move(t.initsend(), batch);
      co_await t.send(slave_tids_[static_cast<std::size_t>(mv.to)], kTagMove);
    } else if (mv.to == me) {
      pvm::Message m = co_await t.recv(
          slave_tids_[static_cast<std::size_t>(mv.from)].raw(), kTagMove);
      ExemplarSet batch = unpack_move(t.rbuf());
      // Integrate: charged as copying into the working set (the batch's
      // bytes are shared, not copied) and extending the flag array.
      co_await t.compute(static_cast<double>(batch.bytes()) * 8.0 /
                         ac.integrate_bps);
      mine.append(batch);
    }
  }
}

sim::Co<void> AdmOpt::slave_main(pvm::Task& t, int me) {
  sim::Engine& eng = vm_->engine();
  const double overhead = vm_->costs().adm.inner_loop_overhead;

  // Figure 4: the coarse-level FSM.
  adm::Fsm fsm(vm_->spans(), t.pvmd().host().name(), t.tid().raw(), me,
               "computing");
  fsm.add_state("redistributing");
  fsm.add_state("inactive");
  fsm.add_state("done");
  fsm.allow("computing", "redistributing");
  fsm.allow("redistributing", "computing");
  fsm.allow("redistributing", "inactive");
  fsm.allow("inactive", "redistributing");
  fsm.allow("computing", "done");
  fsm.allow("inactive", "done");

  // Event delivery: queue the stamped event and poke the mailbox so a recv
  // blocked anywhere wakes up.
  std::deque<adm::EventQueue::Stamped> events;
  t.set_control_handler(adm::kTagAdmEvent, [&events, &t, &eng](
                                               pvm::Message m) {
    events.emplace_back(adm::AdmEvent::decode(*m.body), eng.now());
    t.mailbox().push(
        pvm::Message(m.src, t.tid(), kTagEventNotify,
                     std::make_shared<const pvm::Buffer>()));
  });

  // Initial slice.
  co_await t.recv(pvm::kAny, kTagData);
  ExemplarSet mine = ExemplarSet::adopt(t.rbuf().upk_float_image());
  t.process().image().data_bytes = mine.bytes();
  if (++slaves_ready_count_ >= cfg_.opt.nslaves) slaves_ready_.fire();

  std::optional<Network> net;
  std::vector<float> grad(Network::weight_count(), 0.0f);
  std::vector<float> net_w(Network::weight_count());
  std::int32_t epoch_processed = 0;
  // After reporting an event, the slave suspends its computation until the
  // master's repartition arrives (rapid, unobtrusive response — §2.3).
  bool awaiting_repart = false;
  // Stats for redistributions this slave triggered.  A FIFO: several events
  // can be outstanding at once (the paper's "multiple, simultaneous
  // migration events must be correctly queued"), and redistributions
  // complete in request order.
  std::deque<AdmRedistStats> open_stats;

  bool done = false;
  while (!done) {
    // --- Handle queued migration events (rapid response, §2.3) -----------
    while (!events.empty()) {
      const adm::EventQueue::Stamped ev = events.front();
      events.pop_front();
      AdmRedistStats stat;
      stat.slave = me;
      stat.kind = ev.event.kind;
      stat.event_time = ev.arrived_at;
      open_stats.push_back(stat);
      t.initsend().pk_int(static_cast<std::int32_t>(ev.event.kind));
      t.sbuf().pk_int(me);
      co_await t.send(master_tid_, kTagRedistReq);
      awaiting_repart = true;
      // A withdrawing slave flushes its partial gradient: it will not see
      // the end of this epoch.
      if (ev.event.kind == adm::AdmEventKind::kWithdraw && net.has_value() &&
          epoch_processed > 0) {
        t.initsend().pk_float(grad);
        t.sbuf().pk_int(epoch_processed);
        co_await t.send(master_tid_, kTagGrad);
        std::fill(grad.begin(), grad.end(), 0.0f);
        epoch_processed = 0;
      }
    }

    // --- Inner compute loop (chunked, with the adaptivity overhead) ------
    if (fsm.state() == "computing" && net.has_value() && !awaiting_repart &&
        mine.unprocessed_count() > 0) {
      const GradientKernel::ChunkResult r =
          kernel_.chunk(*net, mine, grad, cfg_.chunk_items, overhead);
      epoch_processed += static_cast<std::int32_t>(r.items);
      co_await t.compute(r.work);
      if (mine.unprocessed_count() == 0) {
        // My share of the epoch is complete.
        t.initsend().pk_float(grad);
        t.sbuf().pk_int(epoch_processed);
        co_await t.send(master_tid_, kTagGrad);
        std::fill(grad.begin(), grad.end(), 0.0f);
        epoch_processed = 0;
      }
      // The flag check: fall through to the mailbox only when something
      // actually arrived.
      if (events.empty() && !t.probe(pvm::kAny, pvm::kAny)) continue;
      if (!events.empty()) continue;
    }

    // --- Event-driven dispatch -------------------------------------------
    pvm::Message m = co_await t.recv(pvm::kAny, pvm::kAny);
    if (m.tag == kTagEventNotify) {
      continue;  // loop top drains the event queue
    } else if (m.tag == kTagNet) {
      t.rbuf().upk_float(net_w);
      net.emplace(std::vector<float>(net_w));
      std::fill(grad.begin(), grad.end(), 0.0f);
      epoch_processed = 0;
      mine.reset_processed();
    } else if (m.tag == kTagRepart) {
      fsm.transition("redistributing", t.trace_context());
      awaiting_repart = false;
      // Flush the open partial gradient: items this slave already
      // processed may be about to move away (their flags travel), and a
      // slave that ends up empty or inactive would otherwise never report
      // them — stalling the epoch's count-based completion.
      if (net.has_value() && epoch_processed > 0) {
        t.initsend().pk_float(grad);
        t.sbuf().pk_int(epoch_processed);
        co_await t.send(master_tid_, kTagGrad);
        std::fill(grad.begin(), grad.end(), 0.0f);
        epoch_processed = 0;
      }
      std::vector<std::int32_t> cur32(t.rbuf().next_count());
      t.rbuf().upk_int(cur32);
      std::vector<std::int32_t> tgt32(t.rbuf().next_count());
      t.rbuf().upk_int(tgt32);
      const std::vector<std::size_t> cur(cur32.begin(), cur32.end());
      const std::vector<std::size_t> tgt(tgt32.begin(), tgt32.end());
      co_await do_moves(t, me, mine, cur, tgt);
      t.process().image().data_bytes = mine.bytes();
      t.initsend().pk_int(static_cast<std::int32_t>(mine.size()));
      co_await t.send(master_tid_, kTagMoveDone);
      // Wait for the master's global all-finished message.
      co_await t.recv(pvm::kAny, kTagResume);
      // The resume message carried the repartition's trace context (adopted
      // by the recv above): the slave rejoins the computation inside it.
      fsm.transition(mine.empty() ? "inactive" : "computing",
                     t.trace_context());
      // Trace boundary: post-rejoin gradient traffic is ordinary work and
      // must not keep riding (and paying for) the repartition's context.
      t.clear_trace_context();
      if (!net.has_value() && !mine.empty()) {
        // Rejoined mid-epoch: adopt the epoch's network from the resume.
        t.rbuf().upk_float(net_w);
        net.emplace(std::vector<float>(net_w));
      }
      if (!open_stats.empty()) {
        open_stats.front().resume_time = eng.now();
        history_.push_back(open_stats.front());
        open_stats.pop_front();
      }
    } else if (m.tag == kTagResume) {
      // A resume not paired with a Repart we processed (should not happen;
      // tolerated for robustness).
    } else if (m.tag == kTagDone) {
      t.initsend().pk_long(static_cast<std::int64_t>(mine.checksum()));
      t.sbuf().pk_int(static_cast<std::int32_t>(mine.size()));
      co_await t.send(master_tid_, kTagFinalReport);
      fsm.transition("done", t.trace_context());
      done = true;
    }
  }
}

}  // namespace cpe::opt
