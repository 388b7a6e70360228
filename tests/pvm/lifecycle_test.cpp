// pvm_kill and pvm_notify(TaskExit) semantics.
#include "mpvm/mpvm.hpp"
#include <gtest/gtest.h>

#include "support/pvm_fixture.hpp"

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;

struct LifecycleTest : WorknetFixture {};

TEST_F(LifecycleTest, KillStopsARunningTask) {
  bool completed = false;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(100.0);
    completed = true;
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await sim::Delay(eng, 5.0);
    EXPECT_TRUE(vm.kill(v[0]));
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_FALSE(completed);
  EXPECT_EQ(host1.cpu().job_count(), 0u);  // burst withdrawn
}

TEST_F(LifecycleTest, KillUnknownOrDeadReturnsFalse) {
  vm.register_program("short", [](Task&) -> sim::Co<void> { co_return; });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("short", 1);
    co_await vm.wait_exit(v[0]);
    EXPECT_FALSE(vm.kill(v[0]));                  // already exited
    EXPECT_FALSE(vm.kill(Tid::make(0, 4321)));    // never existed
  };
  sim::spawn(eng, driver());
  run_all();
}

TEST_F(LifecycleTest, KilledTaskDropsSubsequentMessages) {
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 1);  // never satisfied
  });
  vm.register_program("talker", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 10.0);
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 1);
    co_await sim::Delay(eng, 1.0);
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("talker", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    vm.kill(v[0]);
  };
  sim::spawn(eng, driver());
  run_all();
  const obs::Counter* dropped =
      vm.metrics().find_counter("pvm.messages_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 1u);
}

TEST_F(LifecycleTest, NotifyFiresOnNaturalExit) {
  Tid seen{};
  vm.register_program("watched", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(3.0);
  });
  vm.register_program("watcher", [&](Task& t) -> sim::Co<void> {
    Message m = co_await t.recv(kAny, 77);
    seen = Tid(t.rbuf().upk_int());
    EXPECT_EQ(m.tag, 77);
  });
  auto driver = [&]() -> sim::Proc {
    auto watched = co_await vm.spawn("watched", 1, "host1");
    auto watcher = co_await vm.spawn("watcher", 1, "host2");
    vm.notify_exit(watcher[0], watched[0], 77);
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(seen, Tid::make(0, 1));
}

TEST_F(LifecycleTest, NotifyFiresOnKill) {
  bool notified = false;
  vm.register_program("watched", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(100.0);
  });
  vm.register_program("watcher", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 77);
    notified = true;
  });
  auto driver = [&]() -> sim::Proc {
    auto watched = co_await vm.spawn("watched", 1, "host1");
    auto watcher = co_await vm.spawn("watcher", 1, "host2");
    vm.notify_exit(watcher[0], watched[0], 77);
    co_await sim::Delay(eng, 2.0);
    vm.kill(watched[0]);
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_TRUE(notified);
}

TEST_F(LifecycleTest, NotifyOnAlreadyDeadFiresImmediately) {
  bool notified = false;
  vm.register_program("ghost", [](Task&) -> sim::Co<void> { co_return; });
  vm.register_program("watcher", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 88);
    notified = true;
  });
  auto driver = [&]() -> sim::Proc {
    auto ghost = co_await vm.spawn("ghost", 1, "host1");
    co_await vm.wait_exit(ghost[0]);
    auto watcher = co_await vm.spawn("watcher", 1, "host2");
    vm.notify_exit(watcher[0], ghost[0], 88);
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_TRUE(notified);
}

TEST_F(LifecycleTest, MultipleWatchersAllNotified) {
  int notified = 0;
  vm.register_program("watched", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(3.0);
  });
  vm.register_program("watcher", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 99);
    ++notified;
  });
  auto driver = [&]() -> sim::Proc {
    auto watched = co_await vm.spawn("watched", 1, "host1");
    auto watchers = co_await vm.spawn("watcher", 3);
    for (Tid w : watchers) vm.notify_exit(w, watched[0], 99);
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(notified, 3);
}

TEST_F(LifecycleTest, GsCanUseNotifyToDetectTaskDeath) {
  // The pattern a fault-aware global scheduler uses: watch workers, respawn
  // on death.
  int respawned = 0;
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(5.0);
  });
  vm.register_program("supervisor", [&](Task& t) -> sim::Co<void> {
    std::vector<Tid> kids = co_await t.spawn("worker", 2);
    for (Tid k : kids) vm.notify_exit(t.tid(), k, 500);
    for (int deaths = 0; deaths < 2; ++deaths) {
      co_await t.recv(kAny, 500);
      ++respawned;
    }
  });
  auto driver = [&]() -> sim::Proc { co_await vm.spawn("supervisor", 1); };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(respawned, 2);
}

TEST_F(LifecycleTest, CrashFalloutNotifiesInTidOrder) {
  // A host crash fires the exit watch of every task it took down, in
  // logical-tid order: what a watcher hears must not depend on how the
  // task tables happen to be laid out.
  std::vector<std::string> heard;
  vm.register_program("worker", [](Task& t) -> sim::Co<void> {
    co_await t.compute(100.0);
  });
  vm.register_program("watcher", [&](Task& t) -> sim::Co<void> {
    const std::vector<Tid> kids = co_await t.spawn("worker", 8, "host2");
    for (Tid k : kids) vm.notify_exit(t.tid(), k, 42);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      co_await t.recv(kAny, 42);
      heard.push_back(Tid(t.rbuf().upk_int()).str());
      EXPECT_EQ(t.rbuf().upk_int(), 1);  // lost in a crash
    }
  });
  auto driver = [&]() -> sim::Proc {
    co_await vm.spawn("watcher", 1, "host1");
    co_await sim::Delay(eng, 30.0);
    host2.crash();
  };
  sim::spawn(eng, driver());
  run_all();
  std::vector<std::string> want;
  for (std::uint32_t n = 1; n <= 8; ++n) want.push_back(Tid::make(1, n).str());
  EXPECT_EQ(heard, want);
}

}  // namespace
}  // namespace cpe::pvm

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;
struct AddHostTest : WorknetFixture {};

TEST_F(AddHostTest, HostAddedMidRunAcceptsSpawnsAndMigrations) {
  // pvm_addhosts: grow the virtual machine while an application runs.
  mpvm::Mpvm migrator(vm);
  os::Host fresh(eng, net, os::HostConfig("host4", "HPPA", 1.0));
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 30'000;
    co_await t.compute(40.0);
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    vm.add_host(fresh);  // the pvmd starts on the new workstation
    // New spawns can land there...
    auto w = co_await vm.spawn("worker", 1, "host4");
    EXPECT_EQ(w[0].host_index(), 3u);
    // ...and existing tasks can migrate onto it.
    co_await migrator.migrate(v[0], fresh);
  };
  sim::spawn(eng, driver());
  eng.run();
  EXPECT_EQ(fresh.process_count(), 2u);
  EXPECT_EQ(migrator.history().size(), 1u);
}

}  // namespace
}  // namespace cpe::pvm
