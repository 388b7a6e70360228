// End-to-end tests of the three Opt variants, including the headline
// transparency invariants: migrations must not change what the application
// computes (DESIGN.md invariant 4) and ADM redistribution must conserve the
// exemplar multiset (invariant 6).
#include "apps/opt/opt_app.hpp"

#include <gtest/gtest.h>

#include "apps/opt/adm_opt.hpp"
#include "apps/opt/spmd_opt.hpp"
#include "mpvm/mpvm.hpp"

namespace cpe::opt {
namespace {

OptConfig small_config(bool real_math) {
  OptConfig cfg;
  cfg.data_bytes = 60'000;  // ~230 exemplars: fast real math
  cfg.nslaves = 2;
  cfg.iterations = 3;
  cfg.real_math = real_math;
  cfg.seed = 42;
  return cfg;
}

struct Env {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};

  Env() {
    vm.add_host(host1);
    vm.add_host(host2);
  }
};

/// True when ADM slave `slave` made the FSM transition `from` -> `to`.
bool fsm_moved(pvm::PvmSystem& vm, int slave, const std::string& from,
               const std::string& to) {
  for (const obs::SpanRecord& s : vm.spans().spans())
    if (s.name == "adm.fsm" && *s.attr("slave") == std::to_string(slave) &&
        *s.attr("from") == from && *s.attr("to") == to)
      return true;
  return false;
}

// The hook coroutine runs alongside the application (e.g. to drive a
// migration).  NOTE: it is spawned from the std::function held by this
// frame, which outlives env.eng.run() — spawning a coroutine off a lambda
// that dies earlier would leave the frame's captures dangling.
using Hook = std::function<sim::Co<void>(Env&, PvmOpt&, mpvm::Mpvm*)>;

OptResult run_pvm(bool real_math, bool under_mpvm, Hook hook = {}) {
  Env env;
  std::optional<mpvm::Mpvm> mpvm;
  if (under_mpvm) mpvm.emplace(env.vm);
  PvmOpt app(env.vm, small_config(real_math));
  OptResult result;
  auto driver = [&]() -> sim::Proc { result = co_await app.run(); };
  sim::spawn(env.eng, driver());
  if (hook) sim::spawn(env.eng, hook(env, app, mpvm ? &*mpvm : nullptr));
  env.eng.run();
  return result;
}

TEST(PvmOpt, RunsToCompletionAndTrains) {
  OptResult r = run_pvm(/*real_math=*/true, /*under_mpvm=*/false);
  EXPECT_EQ(r.iterations_done, 3);
  EXPECT_GT(r.runtime(), 0.0);
  EXPECT_NE(r.net_checksum, 0u);
  EXPECT_NE(r.data_checksum, 0u);
}

TEST(PvmOpt, DeterministicAcrossRuns) {
  OptResult a = run_pvm(true, false);
  OptResult b = run_pvm(true, false);
  EXPECT_EQ(a.net_checksum, b.net_checksum);
  EXPECT_DOUBLE_EQ(a.runtime(), b.runtime());
}

TEST(PvmOpt, SourceCompatibleWithMpvm) {
  // §2.1: re-compilation/re-linking only.  Same programs, same result; the
  // MPVM library overhead is per-call microseconds (Table 1: "identical").
  OptResult plain = run_pvm(true, false);
  OptResult under = run_pvm(true, true);
  EXPECT_EQ(plain.net_checksum, under.net_checksum);
  EXPECT_NEAR(plain.runtime(), under.runtime(), plain.runtime() * 0.01);
  EXPECT_GT(under.runtime(), plain.runtime());  // overhead exists...
}

TEST(PvmOpt, MigrationIsComputationallyTransparent) {
  // Migrate a slave mid-run: the trained network must be bit-identical.
  OptResult quiet = run_pvm(true, true);
  OptResult migrated = run_pvm(
      true, true,
      [](Env& env, PvmOpt& app, mpvm::Mpvm* m) -> sim::Co<void> {
        while (!app.slaves_are_ready())
          co_await app.slaves_ready().wait();
        co_await sim::Delay(env.eng, 0.05);
        co_await m->migrate(app.slave_tid(0), env.host2);
      });
  EXPECT_EQ(quiet.net_checksum, migrated.net_checksum);
  EXPECT_EQ(quiet.iterations_done, migrated.iterations_done);
  // The run stretches by roughly the migration dead time.
  EXPECT_GT(migrated.runtime(), quiet.runtime());
}

TEST(PvmOpt, MigrateMasterMidRunStillTransparent) {
  OptResult quiet = run_pvm(true, true);
  OptResult migrated = run_pvm(
      true, true,
      [](Env& env, PvmOpt& app, mpvm::Mpvm* m) -> sim::Co<void> {
        while (!app.slaves_are_ready())
          co_await app.slaves_ready().wait();
        co_await sim::Delay(env.eng, 0.05);
        co_await m->migrate(app.master_tid(), env.host2);
      });
  EXPECT_EQ(quiet.net_checksum, migrated.net_checksum);
}

TEST(PvmOpt, RepeatedMigrationsStillTransparent) {
  OptResult quiet = run_pvm(true, true);
  OptResult migrated = run_pvm(
      true, true,
      [](Env& env, PvmOpt& app, mpvm::Mpvm* m) -> sim::Co<void> {
        while (!app.slaves_are_ready())
          co_await app.slaves_ready().wait();
        co_await sim::Delay(env.eng, 0.02);
        co_await m->migrate(app.slave_tid(0), env.host2);
        co_await sim::Delay(env.eng, 0.02);
        co_await m->migrate(app.slave_tid(0), env.host1);
      });
  EXPECT_EQ(quiet.net_checksum, migrated.net_checksum);
}

// ---------------------------------------------------------------------------
// SPMD_opt (UPVM)
// ---------------------------------------------------------------------------

struct SpmdEnv : Env {
  upvm::Upvm upvm{vm};
  void start() {
    sim::spawn(eng, upvm.start());
    eng.run();
  }
};

TEST(SpmdOpt, ProducesSameTrainingResultAsPvmOpt) {
  // The SPMD restructuring (§4.2) leaves the algorithm untouched: with the
  // same seed the trained network matches PVM_opt bit for bit.
  OptResult pvm_r = run_pvm(true, false);
  SpmdEnv env;
  env.start();
  SpmdOpt app(env.upvm, small_config(true));
  OptResult r;
  auto driver = [&]() -> sim::Proc {
    r = co_await app.run();
    env.upvm.shutdown();
  };
  sim::spawn(env.eng, driver());
  env.eng.run();
  EXPECT_EQ(r.net_checksum, pvm_r.net_checksum);
  EXPECT_EQ(r.iterations_done, 3);
}

TEST(SpmdOpt, UlpMigrationIsTransparent) {
  auto run_spmd = [](bool migrate) {
    SpmdEnv env;
    env.start();
    SpmdOpt app(env.upvm, small_config(true));
    OptResult r;
    auto driver = [&]() -> sim::Proc {
      r = co_await app.run();
      env.upvm.shutdown();
    };
    sim::spawn(env.eng, driver());
    // `mig` must outlive eng.run(): the detached coroutine references its
    // closure (the coroutine lifetime rule, README).
    auto mig = [&]() -> sim::Proc {
      while (!app.slaves_are_ready())
        co_await app.slaves_ready().wait();
      co_await sim::Delay(env.eng, 0.05);
      // Slave 1 == ULP 2, resident on host1: move it to host2.
      co_await env.upvm.migrate_ulp(SpmdOpt::slave_inst(1), env.host2);
    };
    if (migrate) sim::spawn(env.eng, mig());
    env.eng.run();
    return r;
  };
  OptResult quiet = run_spmd(false);
  OptResult migrated = run_spmd(true);
  EXPECT_EQ(quiet.net_checksum, migrated.net_checksum);
  EXPECT_GT(migrated.runtime(), quiet.runtime());
}

// ---------------------------------------------------------------------------
// ADMopt
// ---------------------------------------------------------------------------

AdmOptConfig small_adm(bool real_math) {
  AdmOptConfig cfg;
  cfg.opt = small_config(real_math);
  cfg.chunk_items = 16;
  return cfg;
}

TEST(AdmOpt, QuietRunMatchesPvmOptResult) {
  OptResult pvm_r = run_pvm(true, false);
  Env env;
  AdmOpt app(env.vm, small_adm(true));
  OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(env.eng, driver());
  env.eng.run();
  EXPECT_EQ(r.iterations_done, 3);
  EXPECT_EQ(r.net_checksum, pvm_r.net_checksum);
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  // The adaptivity overhead makes ADM slower in the quiet case (§4.3.1).
  // At this tiny scale compute is a small fraction of the run, so only the
  // sign is asserted; the Table 5 bench validates the ~23% figure at 9 MB.
  EXPECT_GT(r.runtime(), pvm_r.runtime());
}

TEST(AdmOpt, WithdrawConservesDataAndCompletes) {
  Env env;
  AdmOpt app(env.vm, small_adm(false));
  OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(env.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(env.eng, 0.3);
    app.post_event(0, adm::AdmEventKind::kWithdraw);
  };
  sim::spawn(env.eng, gs());
  env.eng.run();
  EXPECT_EQ(r.iterations_done, 3);
  // Invariant 6: nothing lost or duplicated.
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  ASSERT_EQ(app.redistributions().size(), 1u);
  EXPECT_EQ(app.redistributions()[0].kind, adm::AdmEventKind::kWithdraw);
  EXPECT_GT(app.redistributions()[0].migration_time(), 0.0);
  // The withdrawn slave ended inactive; slave 1 holds everything.
  EXPECT_TRUE(fsm_moved(env.vm, 0, "redistributing", "inactive"));
}

TEST(AdmOpt, WithdrawMidEpochWithPartialProgressCompletes) {
  // Regression: a slave that (a) flushed its partial gradient at the
  // withdraw signal, (b) kept being credited for chunks until the
  // repartition arrived, and (c) then gave away *all* its exemplars, used
  // to strand those chunk contributions — the master's count-based epoch
  // accounting never reached the total and the run deadlocked.
  Env env;
  AdmOptConfig cfg;
  cfg.opt = small_config(false);
  cfg.opt.data_bytes = 1'000'000;  // long enough epochs to hit mid-epoch
  cfg.opt.iterations = 4;
  cfg.chunk_items = 64;
  AdmOpt app(env.vm, cfg);
  OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(env.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(env.eng, 0.7);  // slave0 is mid-epoch
    app.post_event(0, adm::AdmEventKind::kWithdraw);
  };
  sim::spawn(env.eng, gs());
  env.eng.run();
  EXPECT_EQ(r.iterations_done, 4);  // no deadlock: every epoch accounted
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  EXPECT_EQ(app.redistributions().size(), 1u);
}

TEST(AdmOpt, WithdrawThenRejoinCyclesThroughFsm) {
  Env env;
  AdmOptConfig cfg = small_adm(false);
  cfg.opt.iterations = 6;
  AdmOpt app(env.vm, cfg);
  OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(env.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(env.eng, 0.3);
    app.post_event(0, adm::AdmEventKind::kWithdraw);
    co_await sim::Delay(env.eng, 1.0);
    app.post_event(0, adm::AdmEventKind::kRejoin);
  };
  sim::spawn(env.eng, gs());
  env.eng.run();
  EXPECT_EQ(r.iterations_done, 6);
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  EXPECT_EQ(app.redistributions().size(), 2u);
  EXPECT_TRUE(fsm_moved(env.vm, 0, "inactive", "redistributing"));
  EXPECT_TRUE(fsm_moved(env.vm, 0, "redistributing", "computing"));
}

TEST(AdmOpt, MultipleSimultaneousWithdrawsHandled) {
  Env env;
  AdmOptConfig cfg = small_adm(false);
  cfg.opt.nslaves = 3;
  cfg.opt.slave_hosts = {"host1", "host2", "host2"};
  AdmOpt app(env.vm, cfg);
  OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(env.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(env.eng, 0.2);
    // Two withdraws in the same instant: both must be queued and handled.
    app.post_event(0, adm::AdmEventKind::kWithdraw);
    app.post_event(1, adm::AdmEventKind::kWithdraw);
  };
  sim::spawn(env.eng, gs());
  env.eng.run();
  EXPECT_EQ(r.iterations_done, 3);
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  EXPECT_EQ(app.redistributions().size(), 2u);
}

TEST(AdmOpt, WeightedPartitioningFollowsCapacities) {
  Env env;
  AdmOptConfig cfg = small_adm(false);
  cfg.partition_weights = {3.0, 1.0};
  AdmOpt app(env.vm, cfg);
  OptResult r;
  auto driver = [&]() -> sim::Proc { r = co_await app.run(); };
  sim::spawn(env.eng, driver());
  auto gs = [&]() -> sim::Proc {
    while (!app.slaves_are_ready()) co_await app.slaves_ready().wait();
    co_await sim::Delay(env.eng, 0.2);
    app.post_event(0, adm::AdmEventKind::kRebalance);
  };
  sim::spawn(env.eng, gs());
  env.eng.run();
  EXPECT_EQ(app.final_data_checksum(), r.data_checksum);
  // After rebalancing 230 exemplars 3:1, slave0 ends with ~172.
  EXPECT_EQ(app.final_item_count(), 60'000u / 260);
}

}  // namespace
}  // namespace cpe::opt
