#include "gs/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cpe::gs {
namespace {

using pvm::Task;

struct GsEnv : ::testing::Test {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  os::Host host3{eng, net, os::HostConfig("host3", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};

  GsEnv() {
    vm.add_host(host1);
    vm.add_host(host2);
    vm.add_host(host3);
  }
};

TEST_F(GsEnv, MoverUnitsOnFollowTheSortedRegistry) {
  mpvm::Mpvm mpvm(vm);
  const std::unique_ptr<Mover> mover = make_mover(mpvm);
  vm.register_program("short", [](Task& t) -> sim::Co<void> {
    co_await t.compute(1.0);
  });
  vm.register_program("long", [](Task& t) -> sim::Co<void> {
    co_await t.compute(60.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("long", 5);
    co_await vm.spawn("short", 4);
    co_await vm.spawn("long", 3, "host2");
  };
  sim::spawn(eng, driver());
  eng.run_until(10.0);  // the short tasks have exited by now

  std::vector<Task*> sorted = vm.all_tasks();
  std::sort(sorted.begin(), sorted.end(), [](const Task* a, const Task* b) {
    return a->tid().raw() < b->tid().raw();
  });
  std::size_t live = 0;
  for (const os::Host* h : {&host1, &host2, &host3}) {
    std::vector<std::int64_t> want;
    for (const Task* t : sorted)
      if (!t->exited() && &t->pvmd().host() == h)
        want.push_back(task_unit(t->tid()));
    EXPECT_EQ(mover->units_on(*h), want) << "on " << h->name();
    live += want.size();
  }
  EXPECT_EQ(live, 8u);
}

TEST_F(GsEnv, PickDestinationPrefersLeastLoaded) {
  GlobalScheduler gs(vm);
  host2.cpu().set_external_jobs(3);
  EXPECT_EQ(gs.pick_destination(host1), &host3);
  host3.cpu().set_external_jobs(5);
  EXPECT_EQ(gs.pick_destination(host1), &host2);
}

TEST_F(GsEnv, PickDestinationHonorsCompatibility) {
  os::Host alien(eng, net, os::HostConfig("alien", "SPARC", 1.0));
  pvm::PvmSystem vm2(eng, net);
  os::Host a(eng, net, os::HostConfig("a", "HPPA", 1.0));
  vm2.add_host(a);
  vm2.add_host(alien);
  GlobalScheduler gs(vm2);
  // Only the SPARC box is available: no compatible destination for HPPA.
  EXPECT_EQ(gs.pick_destination(a), nullptr);
}

TEST_F(GsEnv, ReclaimVacatesAllTasksViaMpvm) {
  mpvm::Mpvm mpvm(vm);
  GlobalScheduler gs(vm);
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 50'000;
    co_await t.compute(60.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 2, "host1");
    co_await sim::Delay(eng, 5.0);
    os::OwnerEvent ev(eng.now(), host1, os::OwnerAction::kReclaim, 1);
    gs.on_owner_event(ev);
  };
  sim::spawn(eng, driver());
  eng.run_until(20.0);
  // Both tasks left host1.
  for (Task* t : vm.all_tasks())
    EXPECT_NE(&t->pvmd().host(), &host1) << t->tid().str();
  EXPECT_GE(gs.journal().size(), 3u);  // 1 reclaim note + 2 migrations
  EXPECT_EQ(mpvm.history().size(), 2u);
}

TEST_F(GsEnv, ArrivalDoesNotVacateUnlessPolicySaysSo) {
  mpvm::Mpvm mpvm(vm);
  GlobalScheduler gs(vm);  // default: vacate_on_arrival = false
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(30.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    os::OwnerEvent ev(eng.now(), host1, os::OwnerAction::kArrive, 1);
    gs.on_owner_event(ev);
  };
  sim::spawn(eng, driver());
  eng.run_until(10.0);
  EXPECT_EQ(mpvm.history().size(), 0u);
}

TEST_F(GsEnv, ScriptedOwnerDrivesSchedulerEndToEnd) {
  mpvm::Mpvm mpvm(vm);
  GlobalScheduler gs(vm);
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 20'000;
    co_await t.compute(40.0);
  });
  os::ScriptedOwner owner(
      eng, {os::OwnerEvent(5.0, host1, os::OwnerAction::kReclaim, 1)});
  owner.set_observer(
      [&](const os::OwnerEvent& ev) { gs.on_owner_event(ev); });
  owner.start();
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
  };
  sim::spawn(eng, driver());
  eng.run_until(30.0);
  EXPECT_EQ(mpvm.history().size(), 1u);
  EXPECT_EQ(mpvm.history()[0].from_host, "host1");
}

TEST_F(GsEnv, LoadThresholdMonitorRebalances) {
  mpvm::Mpvm mpvm(vm);
  GsPolicy policy;
  policy.load_threshold = 2.5;
  policy.poll_interval = 1.0;
  GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 10'000;
    co_await t.compute(60.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 3.0);
    host1.cpu().set_external_jobs(3);  // load jumps to 4
  };
  sim::spawn(eng, driver());
  gs.start_monitoring(40.0);
  eng.run_until(40.0);
  EXPECT_EQ(mpvm.history().size(), 1u);
  EXPECT_NE(mpvm.history()[0].to_host, "host1");
}

TEST_F(GsEnv, MonitorLeavesBalancedSystemAlone) {
  mpvm::Mpvm mpvm(vm);
  GsPolicy policy;
  policy.load_threshold = 2.5;
  policy.poll_interval = 1.0;
  GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(20.0);
  });
  auto driver = [&]() -> sim::Proc { co_await vm.spawn("worker", 3); };
  sim::spawn(eng, driver());
  gs.start_monitoring(30.0);
  eng.run_until(30.0);
  EXPECT_EQ(mpvm.history().size(), 0u);
}

TEST_F(GsEnv, ReclaimVacatesUlpsViaUpvm) {
  upvm::Upvm upvm(vm);
  GlobalScheduler gs(vm);
  gs.attach(upvm);
  sim::spawn(eng, upvm.start());
  eng.run();
  upvm.run_spmd(
      [](upvm::Ulp& u) -> sim::Co<void> {
        u.set_data_bytes(10'000);
        co_await u.compute(60.0);
      },
      6);  // host1: 0,3; host2: 1,4; host3: 2,5
  auto driver = [&]() -> sim::Proc {
    co_await sim::Delay(eng, 2.0);
    os::OwnerEvent ev(eng.now(), host1, os::OwnerAction::kReclaim, 1);
    gs.on_owner_event(ev);
  };
  sim::spawn(eng, driver());
  eng.run_until(30.0);
  for (int i = 0; i < upvm.nulps(); ++i)
    EXPECT_NE(&upvm.ulp(i)->host(), &host1) << "ULP" << i;
  EXPECT_EQ(upvm.history().size(), 2u);
}

TEST_F(GsEnv, ReclaimPostsAdmWithdrawAndDepartRejoins) {
  opt::AdmOptConfig cfg;
  cfg.opt.data_bytes = 60'000;
  cfg.opt.nslaves = 2;
  cfg.opt.iterations = 10;
  cfg.opt.real_math = false;
  cfg.opt.slave_hosts = {"host1", "host2"};
  cfg.chunk_items = 16;
  opt::AdmOpt app(vm, cfg);
  GlobalScheduler gs(vm);
  gs.attach(app);
  opt::OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(eng, driver());
  auto owner_script = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(eng, 0.2);
    gs.on_owner_event(
        os::OwnerEvent(eng.now(), host1, os::OwnerAction::kReclaim, 1));
    co_await sim::Delay(eng, 1.5);
    gs.on_owner_event(
        os::OwnerEvent(eng.now(), host1, os::OwnerAction::kDepart, 1));
  };
  sim::spawn(eng, owner_script());
  eng.run();
  EXPECT_EQ(r.iterations_done, 10);
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  ASSERT_EQ(app.redistributions().size(), 2u);
  EXPECT_EQ(app.redistributions()[0].kind, adm::AdmEventKind::kWithdraw);
  EXPECT_EQ(app.redistributions()[1].kind, adm::AdmEventKind::kRejoin);
}

TEST_F(GsEnv, PolicyValidationRejectsBadKnobsAtConstruction) {
  const auto construct = [&](const GsPolicy& p) { GlobalScheduler gs(vm, p); };
  GsPolicy p;
  p.poll_interval = 0;
  EXPECT_THROW(construct(p), ContractError);
  p = GsPolicy{};
  p.heartbeat_interval = -1.0;
  EXPECT_THROW(construct(p), ContractError);
  p = GsPolicy{};
  p.load_threshold = -2.0;
  EXPECT_THROW(construct(p), ContractError);
  p = GsPolicy{};
  p.load_threshold = std::nan("");
  EXPECT_THROW(construct(p), ContractError);
  p = GsPolicy{};
  p.max_migration_retries = 0;
  EXPECT_THROW(construct(p), ContractError);
  p = GsPolicy{};
  p.improvement_margin = -0.1;
  EXPECT_THROW(construct(p), ContractError);
  p = GsPolicy{};
  p.staleness_bound = 0;
  EXPECT_THROW(construct(p), ContractError);
  // The defaults (and an explicit infinity threshold) are valid.
  EXPECT_NO_THROW(construct(GsPolicy{}));
}

TEST_F(GsEnv, JournalCarriesTypedReasonsAndLoadSnapshots) {
  mpvm::Mpvm mpvm(vm);
  GsPolicy policy;
  policy.load_threshold = 2.5;
  policy.poll_interval = 1.0;
  GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 10'000;
    co_await t.compute(60.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 3.0);
    host1.cpu().set_external_jobs(3);
    co_await sim::Delay(eng, 10.0);
    gs.on_owner_event(
        os::OwnerEvent(eng.now(), host2, os::OwnerAction::kReclaim, 1));
  };
  sim::spawn(eng, driver());
  gs.start_monitoring(12.0);
  eng.run_until(40.0);
  bool saw_overload = false, saw_reclaim = false;
  for (const Decision& d : gs.journal()) {
    if (d.reason == DecisionReason::kOverload) {
      saw_overload = true;
      EXPECT_GT(d.load, 2.5);  // the load that tripped the threshold
      EXPECT_NE(d.what.find("exceeds threshold"), std::string::npos);
    }
    if (d.reason == DecisionReason::kReclaim) saw_reclaim = true;
  }
  EXPECT_TRUE(saw_overload);
  EXPECT_TRUE(saw_reclaim);
  // The per-reason counter matches the journal.
  EXPECT_GT(vm.metrics().counter("gs.decisions.reason.overload").value(), 0u);
}

TEST_F(GsEnv, BestFitRebalancesFromTheGossipedMap) {
  mpvm::Mpvm mpvm(vm);
  GsPolicy policy;
  policy.placement = load::PolicyKind::kBestFit;
  policy.poll_interval = 1.0;
  policy.min_residency = 2.0;
  GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);
  load::LoadExchange exchange(vm);
  gs.attach(exchange, host3);  // the GS "runs on" host3's partial map
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 10'000;
    co_await t.compute(120.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
    host1.cpu().set_external_jobs(4);
  };
  sim::spawn(eng, driver());
  exchange.start(60.0);
  gs.start_monitoring(60.0);
  eng.run_until(60.0);
  ASSERT_GE(mpvm.history().size(), 1u);
  EXPECT_EQ(mpvm.history()[0].from_host, "host1");
  bool saw_rebalance = false;
  for (const Decision& d : gs.journal()) {
    if (d.reason == DecisionReason::kRebalance) {
      saw_rebalance = true;
      EXPECT_NE(d.what.find("best_fit"), std::string::npos);
      EXPECT_GT(d.load, 0.0);
    }
  }
  EXPECT_TRUE(saw_rebalance);
  EXPECT_EQ(gs.placement().thrash_violations(), 0u);
}

TEST_F(GsEnv, ThresholdJournalTextIsByteIdenticalToTheLegacyFormat) {
  mpvm::Mpvm mpvm(vm);
  GsPolicy policy;
  policy.load_threshold = 2.5;
  policy.poll_interval = 1.0;
  GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 10'000;
    co_await t.compute(60.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 3.0);
    host1.cpu().set_external_jobs(3);
  };
  sim::spawn(eng, driver());
  gs.start_monitoring(10.0);
  eng.run_until(40.0);
  bool found = false;
  for (const Decision& d : gs.journal()) {
    if (d.reason != DecisionReason::kOverload) continue;
    found = true;
    // The exact pre-placement-engine string, std::to_string and all.
    EXPECT_EQ(d.what, "load " + std::to_string(d.load) +
                          " on host1 exceeds threshold: rebalancing");
  }
  EXPECT_TRUE(found);
}

/// The vacate contract is the same whichever system moves the units: two
/// movable units sit on host1 — two MPVM tasks, or ULP0 and ULP3 of six
/// round-robin ULPs — and the owner reclaims host1 at t = 5.
enum class Units { kMpvmTasks, kUpvmUlps };

void PrintTo(Units u, std::ostream* os) {
  *os << (u == Units::kMpvmTasks ? "MpvmTasks" : "UpvmUlps");
}

struct GsVacate : GsEnv, ::testing::WithParamInterface<Units> {
  /// One completed move: destination and its [order, resumed] window.
  struct Move {
    std::string to;
    sim::Time start = 0;
    sim::Time end = 0;
  };

  std::optional<mpvm::Mpvm> mpvm;
  std::optional<upvm::Upvm> upvm;
  std::optional<GlobalScheduler> gs;

  void reclaim_host1(GsPolicy policy, sim::Time until) {
    gs.emplace(vm, policy);
    if (GetParam() == Units::kMpvmTasks) {
      mpvm.emplace(vm);
      gs->attach(*mpvm);
      vm.register_program("worker", [](Task& t) -> sim::Co<void> {
        t.process().image().data_bytes = 50'000;
        co_await t.compute(200.0);
      });
      sim::spawn(eng, [](pvm::PvmSystem* v) -> sim::Proc {
        co_await v->spawn("worker", 2, "host1");
      }(&vm));
    } else {
      upvm.emplace(vm);
      gs->attach(*upvm);
      sim::spawn(eng, upvm->start());
      eng.run();
      upvm->run_spmd(
          [](upvm::Ulp& u) -> sim::Co<void> {
            u.set_data_bytes(50'000);
            co_await u.compute(200.0);
          },
          6);  // host1: 0,3; host2: 1,4; host3: 2,5
    }
    os::ScriptedOwner owner(
        eng, {os::OwnerEvent(5.0, host1, os::OwnerAction::kReclaim, 1)});
    owner.set_observer(
        [&](const os::OwnerEvent& ev) { gs->on_owner_event(ev); });
    owner.start();
    eng.run_until(until);
    EXPECT_EQ(gs->admission().active(), 0u);  // every ticket released
  }

  [[nodiscard]] std::vector<Move> moves() const {
    std::vector<Move> out;
    if (mpvm)
      for (const mpvm::MigrationStats& s : mpvm->history())
        out.push_back({s.to_host, s.event_time, s.restart_done});
    if (upvm)
      for (const upvm::UlpMigrationStats& s : upvm->history())
        out.push_back({s.to_host, s.event_time, s.accept_done});
    return out;
  }

  [[nodiscard]] bool host1_drained() const {
    if (mpvm) {
      for (Task* t : vm.all_tasks())
        if (&t->pvmd().host() == &host1) return false;
    }
    if (upvm) {
      for (int i = 0; i < upvm->nulps(); ++i)
        if (&upvm->ulp(i)->host() == &host1) return false;
    }
    return true;
  }
};

TEST_P(GsVacate, ConcurrentVacateFansOutAcrossPairLanes) {
  GsPolicy policy;
  policy.max_concurrent_migrations = 2;
  reclaim_host1(policy, 90.0);
  // Both units left, and the per-pair lane rule forced the two concurrent
  // streams onto distinct destinations instead of piling onto host2.
  const std::vector<Move> m = moves();
  ASSERT_EQ(m.size(), 2u);
  EXPECT_NE(m[0].to, m[1].to);
  EXPECT_TRUE(host1_drained());
}

TEST_P(GsVacate, VacateWaitsForAnAdmissionSlotWhenBudgetIsOne) {
  GsPolicy policy;
  policy.max_concurrent_migrations = 1;
  reclaim_host1(policy, 90.0);
  // The second vacate driver had to wait for the first ticket to free up,
  // so the two streams never overlap, but the host still drains completely:
  // admission delays, never deadlocks.
  const std::vector<Move> m = moves();
  ASSERT_EQ(m.size(), 2u);
  EXPECT_TRUE(m[0].end <= m[1].start || m[1].end <= m[0].start)
      << "[" << m[0].start << ", " << m[0].end << "] overlaps [" << m[1].start
      << ", " << m[1].end << "]";
  EXPECT_GE(vm.metrics().counter("gs.migration.admission_waits").value(), 1u);
  EXPECT_TRUE(host1_drained());
}

INSTANTIATE_TEST_SUITE_P(Movers, GsVacate,
                         ::testing::Values(Units::kMpvmTasks,
                                           Units::kUpvmUlps));

TEST_F(GsEnv, WatchdogAbortsStalledMigrationAndTaskSurvives) {
  mpvm::Mpvm mpvm(vm);
  GsPolicy policy;
  policy.migration_watchdog = 2.0;   // transfer below takes far longer
  policy.max_migration_retries = 1;  // give up after the aborted attempt
  GlobalScheduler gs(vm, policy);
  gs.attach(mpvm);
  vm.register_program("fat", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 30'000'000;
    co_await t.compute(60.0);
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("fat", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    os::OwnerEvent ev(eng.now(), host1, os::OwnerAction::kReclaim, 1);
    gs.on_owner_event(ev);
  };
  sim::spawn(eng, driver());
  gs.start_heartbeat(25.0);
  eng.run_until(25.0);
  // The watchdog fired, the migration rolled back, and the victim kept
  // running on its old host instead of being lost mid-transfer.
  EXPECT_GE(vm.metrics().counter("gs.migration.watchdog_aborts").value(), 1u);
  ASSERT_EQ(vm.all_tasks().size(), 1u);
  EXPECT_EQ(&vm.all_tasks()[0]->pvmd().host(), &host1);
  EXPECT_FALSE(mpvm.migrating(vm.all_tasks()[0]->tid()));
  EXPECT_EQ(gs.admission().active(), 0u);  // aborted stream's slot freed
}

TEST_F(GsEnv, InFlightMigrationsSurviveFailover) {
  GlobalScheduler gs1(vm);
  GlobalScheduler gs2(vm);
  const std::uint64_t ticket =
      gs1.admission().admit(42, "host1", "host2", eng.now());
  ASSERT_NE(ticket, 0u);
  GsDurableState s = gs1.export_state();
  ASSERT_EQ(s.in_flight_migrations.size(), 1u);
  // A failover successor adopts the stream: it counts against the budget and
  // holds the pair lane, so the new leader cannot over-admit onto the pair.
  gs2.import_state(s);
  EXPECT_EQ(gs2.admission().active(), 1u);
  EXPECT_FALSE(gs2.admission().would_admit("host1", "host2"));
  EXPECT_FALSE(gs2.admission().would_admit("host2", "host1"));
  // No MPVM reports the unit as still migrating, so the next heartbeat's
  // watchdog pass reaps the adopted entry and frees the lane.
  gs2.set_active(true);
  gs2.tick();
  EXPECT_EQ(gs2.admission().active(), 0u);
  EXPECT_TRUE(gs2.admission().would_admit("host1", "host2"));
}

TEST_F(GsEnv, AdoptedUlpAdmissionOutlivesFailoverUntilTheMoveResolves) {
  upvm::Upvm upvm(vm);
  GlobalScheduler gs1(vm);
  GlobalScheduler gs2(vm);
  gs1.attach(upvm);
  gs2.attach(upvm);
  sim::spawn(eng, upvm.start());
  eng.run();
  upvm.run_spmd(
      [](upvm::Ulp& u) -> sim::Co<void> {
        u.set_data_bytes(2'000'000);  // seconds of transfer
        co_await u.compute(200.0);
      },
      2);  // ULP0 on host1, ULP1 on host2
  // gs1 vacates host1, then is deposed mid-transfer: gs2 takes over from
  // gs1's replicated state and ticks every quarter second.  The adopted ULP
  // stream must hold its admission slot exactly as long as UPVM still shows
  // ULP0 migrating.
  std::vector<std::pair<bool, std::size_t>> ticks;  // (migrating, active)
  auto driver = [](sim::Engine* e, upvm::Upvm* up, GlobalScheduler* leader,
                   GlobalScheduler* successor, os::Host* host,
                   std::vector<std::pair<bool, std::size_t>>* out)
      -> sim::Proc {
    co_await sim::Delay(*e, 1.0);
    leader->vacate(*host);
    co_await sim::Delay(*e, 0.5);
    leader->set_active(false);
    successor->import_state(leader->export_state());
    for (int i = 0; i < 400; ++i) {
      successor->tick();
      out->emplace_back(up->migrating(0), successor->admission().active());
      if (!up->migrating(0)) break;
      co_await sim::Delay(*e, 0.25);
    }
  };
  sim::spawn(eng, driver(&eng, &upvm, &gs1, &gs2, &host1, &ticks));
  eng.run_until(120.0);
  ASSERT_GE(ticks.size(), 3u);
  for (std::size_t i = 0; i + 1 < ticks.size(); ++i) {
    EXPECT_TRUE(ticks[i].first) << "tick " << i;
    EXPECT_EQ(ticks[i].second, 1u) << "tick " << i;
  }
  // Reaped on the first tick after the move finished, and it did move.
  EXPECT_FALSE(ticks.back().first);
  EXPECT_EQ(ticks.back().second, 0u);
  EXPECT_NE(&upvm.ulp(0)->host(), &host1);
}

}  // namespace
}  // namespace cpe::gs
