// Failure-aware migration, end to end: crash-safe MPVM rollback, UPVM move
// aborts, ADM degradation, and GS-driven retry and checkpoint recovery,
// all exercised through deterministic FaultPlan schedules.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "gs/scheduler.hpp"
#include "obs/flight.hpp"

namespace cpe::fault {
namespace {

using pvm::Task;
using pvm::Tid;

/// A worknet of three compatible workstations with MPVM on top — built
/// locally (not a TEST_F fixture) so scenarios can run several fresh copies
/// for replay-determinism checks.
struct MiniVm {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  os::Host host3{eng, net, os::HostConfig("host3", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};
  mpvm::Mpvm mpvm{vm};
  FaultPlan plan{eng};

  MiniVm() {
    vm.add_host(host1);
    vm.add_host(host2);
    vm.add_host(host3);
  }
};

std::size_t find_entry(const std::vector<gs::Decision>& journal,
                       const std::string& needle, std::size_t from = 0) {
  for (std::size_t i = from; i < journal.size(); ++i)
    if (journal[i].what.find(needle) != std::string::npos) return i;
  return journal.size();
}

// ---------------------------------------------------------------------------
// MPVM rollback
// ---------------------------------------------------------------------------

/// Crash the destination when the migration reaches `stage`: the migration
/// must roll back, the victim must finish at the source, and a sender that
/// was (or would have been) blocked by the flush must be released.
void run_destination_crash(mpvm::MigrationStage stage) {
  SCOPED_TRACE(std::string(mpvm::to_string(stage)));
  MiniVm w;
  std::optional<Tid> vtid;
  bool victim_done = false;
  const os::Host* victim_final = nullptr;
  int sender_sent = 0;
  w.vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 100'000;
    co_await t.compute(5.0);
    co_await t.recv(pvm::kAny, 7);
    victim_done = true;
    victim_final = &t.pvmd().host();
  });
  w.vm.register_program("sender", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(w.eng, 2.0);  // lands around the migration attempt
    t.initsend().pk_int(1);
    co_await t.send(*vtid, 7);
    ++sender_sent;
  });
  std::optional<mpvm::MigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await w.vm.spawn("victim", 1, "host1");
    vtid = v[0];
    co_await w.vm.spawn("sender", 1, "host3");
    w.plan.crash_at_stage(w.mpvm, w.host2, v[0], stage);
    co_await sim::Delay(w.eng, 1.0);
    st = co_await w.mpvm.migrate(v[0], w.host2);
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok);
  EXPECT_FALSE(st->failure.empty());
  EXPECT_TRUE(victim_done);
  EXPECT_EQ(victim_final, &w.host1);  // rolled back, never moved
  EXPECT_EQ(sender_sent, 1);
  EXPECT_TRUE(w.mpvm.history().empty());  // failed attempts are not history
  ASSERT_EQ(w.plan.injected().size(), 1u);
  EXPECT_NE(w.plan.injected()[0].what.find("crash host2"), std::string::npos);
  EXPECT_EQ(w.vm.live_task_count(), 0u);
}

TEST(MpvmRollback, DestinationCrashAtEveryStageRollsBack) {
  run_destination_crash(mpvm::MigrationStage::kEvent);
  run_destination_crash(mpvm::MigrationStage::kFrozen);
  run_destination_crash(mpvm::MigrationStage::kFlushed);
  run_destination_crash(mpvm::MigrationStage::kTransferred);
}

TEST(MpvmRollback, SourceCrashKillsTaskButUnblocksSenders) {
  MiniVm w;
  std::optional<Tid> vtid;
  bool victim_done = false;
  int sender_sent = 0;
  w.vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(50.0);
    victim_done = true;
  });
  w.vm.register_program("sender", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(w.eng, 2.0);
    t.initsend().pk_int(1);
    co_await t.send(*vtid, 7);  // dropped for the dead task, must not hang
    ++sender_sent;
  });
  std::optional<mpvm::MigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await w.vm.spawn("victim", 1, "host1");
    vtid = v[0];
    co_await w.vm.spawn("sender", 1, "host3");
    w.plan.crash_at_stage(w.mpvm, w.host1, v[0],
                          mpvm::MigrationStage::kFrozen);
    co_await sim::Delay(w.eng, 1.0);
    st = co_await w.mpvm.migrate(v[0], w.host2);
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok);
  EXPECT_EQ(st->failure, "source host crashed while frozen");
  EXPECT_FALSE(victim_done);  // no checkpoint: the crash really lost the work
  EXPECT_EQ(sender_sent, 1);
  EXPECT_TRUE(w.mpvm.history().empty());
  EXPECT_EQ(w.vm.live_task_count(), 0u);
}

TEST(MpvmRollback, FlushAckTimeoutWithUnreachablePeerAborts) {
  MiniVm w;
  w.mpvm.set_timeouts(mpvm::MpvmTimeouts{.flush_ack = 2.0, .transfer = 30.0});
  bool victim_done = false, peer_done = false;
  const os::Host* victim_final = nullptr;
  // The peer greets the victim once so the scoped flush round targets it.
  w.vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 50'000;
    co_await t.recv(pvm::kAny, 9);
    co_await t.compute(10.0);
    victim_done = true;
    victim_final = &t.pvmd().host();
  });
  w.vm.register_program("peer", [&](Task& t) -> sim::Co<void> {
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 9);
    co_await t.compute(12.0);
    peer_done = true;
  });
  // The peer's workstation hangs after the greeting but before the flush
  // arrives, and stays wedged past the datagram retry budget *and* the
  // flush-ack deadline: the flush is undeliverable, no ack ever comes, and
  // the migration must abort rather than hang.
  w.plan.freeze_at(w.host3, 0.9, 8.0);
  std::optional<mpvm::MigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await w.vm.spawn("victim", 1, "host1");
    co_await w.vm.spawn("peer", 1, "host3");
    co_await sim::Delay(w.eng, 1.0);
    st = co_await w.mpvm.migrate(v[0], w.host2);
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok);
  EXPECT_NE(st->failure.find("flush acks timed out"), std::string::npos);
  EXPECT_TRUE(victim_done);
  EXPECT_EQ(victim_final, &w.host1);
  EXPECT_TRUE(peer_done);  // the freeze was transient; nothing was lost
  EXPECT_TRUE(w.mpvm.history().empty());
  EXPECT_EQ(w.vm.live_task_count(), 0u);
}

TEST(MpvmRollback, SkeletonSpawnFailureRollsBackThenRetrySucceeds) {
  MiniVm w;
  w.plan.fail_skeleton_spawns(w.mpvm, 1);
  bool victim_done = false;
  const os::Host* victim_final = nullptr;
  w.vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 50'000;
    co_await t.compute(20.0);
    victim_done = true;
    victim_final = &t.pvmd().host();
  });
  std::optional<mpvm::MigrationStats> first, second;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await w.vm.spawn("victim", 1, "host1");
    co_await sim::Delay(w.eng, 1.0);
    first = co_await w.mpvm.migrate(v[0], w.host2);
    second = co_await w.mpvm.migrate(v[0], w.host2);
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->ok);
  EXPECT_NE(first->failure.find("skeleton spawn failed"), std::string::npos);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok);
  EXPECT_TRUE(victim_done);
  EXPECT_EQ(victim_final, &w.host2);
  EXPECT_EQ(w.mpvm.history().size(), 1u);
  ASSERT_EQ(w.plan.injected().size(), 1u);
  EXPECT_NE(w.plan.injected()[0].what.find("skeleton spawn"),
            std::string::npos);
  EXPECT_EQ(w.vm.live_task_count(), 0u);
}

// ---------------------------------------------------------------------------
// GS retry: the acceptance scenario
// ---------------------------------------------------------------------------

struct GsRetryOutcome {
  std::vector<std::pair<std::string, bool>> journal;
  double finished = -1;
  std::string final_host;
  std::size_t migrations = 0;
  std::string migrated_to;
  std::string spans;  ///< every span of the run, one JSON object a line
};

/// The ISSUE acceptance scenario: the GS vacates host1; the chosen
/// destination (host2) crashes mid-state-transfer; the GS journals the
/// failed attempt, blacklists host2, backs off, and retries successfully
/// against host3.  Fully deterministic: a fixed fault schedule and no
/// stochastic inputs.
GsRetryOutcome run_gs_retry_scenario() {
  MiniVm w;
  gs::GlobalScheduler gs(w.vm);
  gs.attach(w.mpvm);
  // Load host3 so the first pick is host2 — the host the plan crashes.
  w.host3.cpu().set_external_jobs(2);
  GsRetryOutcome out;
  w.vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 2'000'000;  // seconds of transfer
    co_await t.compute(40.0);
    out.finished = w.eng.now();
    out.final_host = t.pvmd().host().name();
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await w.vm.spawn("worker", 1, "host1");
    w.plan.crash_at_stage(w.mpvm, w.host2, v[0],
                          mpvm::MigrationStage::kFlushed, /*extra_delay=*/0.5);
    co_await sim::Delay(w.eng, 1.0);
    gs.vacate(w.host1);
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  for (const gs::Decision& d : gs.journal())
    out.journal.emplace_back(d.what, d.ok);
  out.migrations = w.mpvm.history().size();
  if (!w.mpvm.history().empty())
    out.migrated_to = w.mpvm.history().front().to_host;
  std::ostringstream spans;
  for (const obs::SpanRecord& s : w.vm.spans().spans()) {
    obs::write_span(spans, s);
    spans << '\n';
  }
  out.spans = spans.str();
  return out;
}

TEST(GsRecovery, FailedVacateIsRetriedAgainstNextBestHost) {
  const GsRetryOutcome out = run_gs_retry_scenario();

  // The whole narrative, byte for byte: vacate, fail, blacklist, backoff,
  // retry.  Any driver change that rewords or reorders it shows up here.
  const std::vector<std::pair<std::string, bool>> pinned = {
      {"migrate t0.1 (worker) host1 -> host2", true},
      {"migration of t0.1 to host2 failed: host crashed during skeleton start",
       false},
      {"blacklisting host2 for 10.000000 s (drops=0, delivery_errors=0, "
       "duplicates=0, corrupt=0)",
       true},
      {"retrying t0.1 in 0.500000 s", true},
      {"migrate t0.1 (worker) host1 -> host3", true},
  };
  EXPECT_EQ(out.journal, pinned);

  std::vector<gs::Decision> journal;
  for (const auto& [what, ok] : out.journal)
    journal.emplace_back(0.0, what, ok);
  const std::size_t attempt1 = find_entry(journal, "host1 -> host2");
  const std::size_t failed = find_entry(journal, "failed:", attempt1);
  const std::size_t blacklisted =
      find_entry(journal, "blacklisting host2", failed);
  const std::size_t retrying = find_entry(journal, "retrying", blacklisted);
  const std::size_t attempt2 =
      find_entry(journal, "host1 -> host3", retrying);
  // The exact recovery narrative, in order: attempt, failure, blacklist,
  // backoff, successful retry.
  ASSERT_LT(attempt1, journal.size());
  ASSERT_LT(failed, journal.size());
  ASSERT_LT(blacklisted, journal.size());
  ASSERT_LT(retrying, journal.size());
  ASSERT_LT(attempt2, journal.size());
  EXPECT_TRUE(journal[attempt1].ok);
  EXPECT_FALSE(journal[failed].ok);  // the Decision::ok=false record
  EXPECT_TRUE(journal[attempt2].ok);

  // The blacklist note attributes the transport's view of the shunned
  // destination — lossy (drops, delivery errors) vs adversarial
  // (duplicates, corruption) — straight from the per-destination counters.
  const std::string& note = journal[blacklisted].what;
  EXPECT_NE(note.find("drops="), std::string::npos) << note;
  EXPECT_NE(note.find("duplicates="), std::string::npos) << note;
  EXPECT_NE(note.find("corrupt="), std::string::npos) << note;

  EXPECT_EQ(out.migrations, 1u);  // only the successful attempt
  EXPECT_EQ(out.migrated_to, "host3");
  EXPECT_EQ(out.final_host, "host3");
  EXPECT_GT(out.finished, 40.0);
}

TEST(GsRecovery, RetryScenarioReplaysIdentically) {
  const GsRetryOutcome a = run_gs_retry_scenario();
  const GsRetryOutcome b = run_gs_retry_scenario();
  EXPECT_EQ(a.journal, b.journal);  // same decisions, same order, same flags
  EXPECT_DOUBLE_EQ(a.finished, b.finished);
  EXPECT_EQ(a.final_host, b.final_host);
  // The span stream replays byte for byte too: ids, times, Lamport stamps,
  // statuses and attributes.
  EXPECT_NE(a.spans.find("\"name\":\"mpvm.migrate\""), std::string::npos);
  EXPECT_NE(a.spans.find("\"name\":\"gs."), std::string::npos);
  EXPECT_EQ(a.spans, b.spans);
}

TEST(GsRecovery, VacateWithNoLiveDestinationIsJournalledNotCrashed) {
  MiniVm w;
  gs::GlobalScheduler gs(w.vm);
  gs.attach(w.mpvm);
  w.vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(10.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await w.vm.spawn("worker", 1, "host1");
    w.host2.crash();
    w.host3.crash();
    co_await sim::Delay(w.eng, 1.0);
    gs.vacate(w.host1);  // nowhere to go
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  const std::size_t i =
      find_entry(gs.journal(), "no compatible live destination");
  ASSERT_LT(i, gs.journal().size());
  EXPECT_FALSE(gs.journal()[i].ok);
  EXPECT_TRUE(w.mpvm.history().empty());  // the task stayed put and finished
  EXPECT_EQ(w.vm.live_task_count(), 0u);
}

TEST(GsRecovery, HeartbeatDetectsCrashReportsLossAndRecovery) {
  MiniVm w;
  gs::GlobalScheduler gs(w.vm);
  gs.attach(w.mpvm);
  w.vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(30.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await w.vm.spawn("worker", 1, "host2");
  };
  sim::spawn(w.eng, driver());
  w.plan.crash_at(w.host2, 3.0);
  w.plan.recover_at(w.host2, 8.0);
  gs.start_heartbeat(20.0);
  w.eng.run();
  const std::size_t down = find_entry(gs.journal(), "host host2 is down");
  const std::size_t lost = find_entry(gs.journal(), "work is lost", down);
  const std::size_t back =
      find_entry(gs.journal(), "host host2 recovered", lost);
  ASSERT_LT(down, gs.journal().size());
  ASSERT_LT(lost, gs.journal().size());
  ASSERT_LT(back, gs.journal().size());
  EXPECT_FALSE(gs.journal()[down].ok);
  EXPECT_FALSE(gs.journal()[lost].ok);
  EXPECT_TRUE(gs.journal()[back].ok);
}

TEST(GsRecovery, WatchedTaskIsRestartedFromCheckpointAfterCrash) {
  MiniVm w;
  mpvm::Checkpointer ckpt(w.vm, w.host3,
                          mpvm::CheckpointOptions{.interval = 2.0});
  gs::GlobalScheduler gs(w.vm);
  gs.attach(w.mpvm);
  gs.attach(ckpt);
  double finished = -1;
  std::string final_host;
  w.vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 100'000;
    co_await t.compute(30.0);
    finished = w.eng.now();
    final_host = t.pvmd().host().name();
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await w.vm.spawn("worker", 1, "host1");
    ckpt.watch(v[0]);
  };
  sim::spawn(w.eng, driver());
  w.plan.crash_at(w.host1, 7.0);
  gs.start_heartbeat(60.0);
  w.eng.run();
  // The crash stranded the watched task; the heartbeat noticed and the
  // recovery driver restarted it from its last checkpoint elsewhere.
  EXPECT_GT(finished, 30.0);  // lost work was re-executed
  EXPECT_FALSE(final_host.empty());
  EXPECT_NE(final_host, "host1");
  ASSERT_EQ(ckpt.vacate_history().size(), 1u);
  EXPECT_GT(ckpt.vacate_history()[0].redo_work, 0.0);
  const std::size_t recovering = find_entry(gs.journal(), "recovering");
  const std::size_t recovered =
      find_entry(gs.journal(), "recovered", recovering);
  ASSERT_LT(recovering, gs.journal().size());
  ASSERT_LT(recovered, gs.journal().size());
  EXPECT_TRUE(gs.journal()[recovered].ok);
}

TEST(GsRecovery, CheckpointRestartRacingAVacateAvoidsBlacklistedHost) {
  // A vacate migration is in flight when the source host dies.  The failed
  // attempt blacklists its destination; the checkpoint recovery that races
  // in behind it must wait the migration out and must NOT resurrect the
  // task on the blacklisted host — even though that host is up again and
  // the least loaded on the worknet.
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  os::Host host3{eng, net, os::HostConfig("host3", "HPPA", 1.0)};
  os::Host host4{eng, net, os::HostConfig("host4", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};
  vm.add_host(host1);
  vm.add_host(host2);
  vm.add_host(host3);
  vm.add_host(host4);
  mpvm::Mpvm mpvm{vm};
  FaultPlan plan{eng};
  mpvm::Checkpointer ckpt(vm, host4, mpvm::CheckpointOptions{.interval = 1.0});
  gs::GsPolicy pol;
  pol.max_migration_retries = 1;  // the failed vacate gives up immediately
  gs::GlobalScheduler gs(vm, pol);
  gs.attach(mpvm);
  gs.attach(ckpt);
  // Load ranking: host2 is the clear first pick, before host3 and host4.
  host3.cpu().set_external_jobs(1);
  host4.cpu().set_external_jobs(2);
  double finished = -1;
  std::string final_host;
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 5'000'000;  // seconds of transfer
    co_await t.compute(30.0);
    finished = eng.now();
    final_host = t.pvmd().host().name();
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    ckpt.watch(v[0]);
    co_await sim::Delay(eng, 1.0);
    gs.vacate(host1);
  };
  sim::spawn(eng, driver());
  plan.crash_at(host1, 3.5);  // source dies mid-transfer to host2
  gs.start_heartbeat(60.0);
  eng.run();

  // The vacate attempt failed against the dead source and shunned host2;
  // the recovery then restarted the task from its checkpoint elsewhere.
  const std::size_t blacklisted = find_entry(gs.journal(), "blacklisting host2");
  const std::size_t recovering =
      find_entry(gs.journal(), "recovering", blacklisted);
  const std::size_t recovered = find_entry(gs.journal(), "recovered", recovering);
  ASSERT_LT(blacklisted, gs.journal().size());
  ASSERT_LT(recovering, gs.journal().size());
  ASSERT_LT(recovered, gs.journal().size());
  EXPECT_TRUE(gs.journal()[recovered].ok);
  // Restarted on host3 — NOT on the blacklisted (but up and least-loaded)
  // host2, and not resurrected twice.
  EXPECT_EQ(final_host, "host3");
  EXPECT_GT(finished, 30.0);  // lost work was redone from the checkpoint
  ASSERT_EQ(ckpt.vacate_history().size(), 1u);
  EXPECT_TRUE(mpvm.history().empty());  // the vacate migration never landed
  EXPECT_EQ(vm.live_task_count(), 0u);
}

// ---------------------------------------------------------------------------
// UPVM abort
// ---------------------------------------------------------------------------

TEST(UpvmAbort, UnreachableDestinationAbortsMoveAndUlpStaysRunnable) {
  MiniVm w;
  upvm::Upvm upvm(w.vm);
  sim::spawn(w.eng, upvm.start());
  w.eng.run();
  bool done = false;
  upvm.run_spmd(
      [&](upvm::Ulp& u) -> sim::Co<void> {
        u.set_data_bytes(100'000);
        co_await u.compute(20.0);
        done = true;
      },
      1);
  // host2 wedges before the flush round can reach its container and stays
  // wedged past the flush-ack deadline: the move must abort.
  w.plan.freeze_at(w.host2, 0.9, 10.0);
  std::optional<upvm::UlpMigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    co_await sim::Delay(w.eng, 1.0);
    st = co_await upvm.migrate_ulp(0, w.host2);
  };
  sim::spawn(w.eng, driver());
  w.eng.run();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok);
  EXPECT_FALSE(st->failure.empty());
  EXPECT_TRUE(done);  // still ran to completion at the source
  EXPECT_EQ(&upvm.ulp(0)->host(), &w.host1);
  EXPECT_TRUE(upvm.history().empty());
}

// ---------------------------------------------------------------------------
// ADM degradation
// ---------------------------------------------------------------------------

TEST(AdmDegradation, CrashedSlaveIsImplicitWithdrawAndRunCompletes) {
  MiniVm w;
  opt::AdmOptConfig cfg;
  cfg.opt.data_bytes = 600'000;
  cfg.opt.nslaves = 3;
  cfg.opt.iterations = 3;
  cfg.opt.real_math = false;
  cfg.opt.master_host = "host1";
  cfg.opt.slave_hosts = {"host1", "host2", "host3"};
  cfg.chunk_items = 16;
  opt::AdmOpt app(w.vm, cfg);
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(w.eng, driver());
  auto crasher = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(w.eng, 0.5);  // mid-epoch
    w.host2.crash();
  };
  sim::spawn(w.eng, crasher());
  w.eng.run();
  // Degraded, not aborted: the survivors finish every epoch; slave 1's
  // exemplars died with host2 and are accounted as lost.
  EXPECT_EQ(r.iterations_done, 3);
  EXPECT_FALSE(app.slave_lost(0));
  EXPECT_TRUE(app.slave_lost(1));
  EXPECT_FALSE(app.slave_lost(2));
  EXPECT_GT(app.lost_item_count(), 0u);
  EXPECT_GT(app.final_item_count(), 0u);
}

}  // namespace
}  // namespace cpe::fault
