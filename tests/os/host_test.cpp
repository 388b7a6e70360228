#include "os/host.hpp"

#include <gtest/gtest.h>

namespace cpe::os {
namespace {

struct HostFixture : ::testing::Test {
  sim::Engine eng;
  net::Network net{eng};
  Host h1{eng, net, HostConfig("host1", "HPPA", 1.0)};
  Host h2{eng, net, HostConfig("host2", "HPPA", 1.0)};
  Host sparc{eng, net, HostConfig("sol1", "SPARC", 0.8)};
};

TEST_F(HostFixture, HostsRegisterOnNetwork) {
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.node_name(h1.node()), "host1");
  EXPECT_EQ(net.node_name(sparc.node()), "sol1");
}

TEST_F(HostFixture, MigrationCompatibilityIsByArch) {
  EXPECT_TRUE(h1.migration_compatible_with(h2));
  EXPECT_TRUE(h2.migration_compatible_with(h1));
  EXPECT_FALSE(h1.migration_compatible_with(sparc));
}

TEST_F(HostFixture, CreateAndFindProcess) {
  Process& p = h1.create_process("opt_slave");
  EXPECT_EQ(p.name(), "opt_slave");
  EXPECT_EQ(h1.find(p.pid()), &p);
  EXPECT_EQ(h1.find(9999), nullptr);
  EXPECT_EQ(h1.process_count(), 1u);
}

TEST_F(HostFixture, PidsAreUniquePerHost) {
  Process& a = h1.create_process("a");
  Process& b = h1.create_process("b");
  EXPECT_NE(a.pid(), b.pid());
}

TEST_F(HostFixture, ProcessRunsProgramOnHostCpu) {
  Process& p = h1.create_process("worker");
  double done_at = -1;
  auto program = [&]() -> sim::Proc {
    co_await p.compute(3.0);
    done_at = eng.now();
  };
  p.run(program());
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST_F(HostFixture, KillAbortsProgramMidBurst) {
  Process& p = h1.create_process("victim");
  bool completed = false;
  auto program = [&]() -> sim::Proc {
    co_await p.compute(100.0);
    completed = true;
  };
  p.run(program());
  eng.run_until(1.0);
  EXPECT_EQ(h1.cpu().job_count(), 1u);
  p.kill();
  EXPECT_FALSE(p.alive());
  EXPECT_EQ(h1.cpu().job_count(), 0u);
  eng.run();
  EXPECT_FALSE(completed);
}

TEST_F(HostFixture, ReapRemovesProcess) {
  Process& p = h1.create_process("tmp");
  const Pid pid = p.pid();
  h1.reap(pid);
  EXPECT_EQ(h1.find(pid), nullptr);
  EXPECT_EQ(h1.process_count(), 0u);
  h1.reap(pid);  // idempotent
}

TEST_F(HostFixture, LibraryGuardTracksNesting) {
  Process& p = h1.create_process("lib");
  EXPECT_FALSE(p.in_library());
  {
    auto g1 = p.enter_library();
    EXPECT_TRUE(p.in_library());
    {
      auto g2 = p.enter_library();
      EXPECT_TRUE(p.in_library());
    }
    EXPECT_TRUE(p.in_library());
  }
  EXPECT_FALSE(p.in_library());
}

TEST_F(HostFixture, LibraryExitFiresTrigger) {
  Process& p = h1.create_process("lib");
  double fired_at = -1;
  auto waiter = [&]() -> sim::Proc {
    co_await p.library_exited().wait();
    fired_at = eng.now();
  };
  auto worker = [&]() -> sim::Proc {
    auto g = p.enter_library();
    co_await p.compute(4.0);
  };
  p.run(worker());
  sim::spawn(eng, waiter());
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST_F(HostFixture, MemoryImageMigratableBytes) {
  Process& p = h1.create_process("img");
  p.image().data_bytes = 1'000'000;
  p.image().heap_bytes = 200'000;
  p.image().stack_bytes = 64 * 1024;
  p.image().context_bytes = 4096;
  EXPECT_EQ(p.image().migratable_bytes(),
            1'000'000u + 200'000u + 64u * 1024 + 4096u);
}

TEST_F(HostFixture, ReleaseAndAdoptMovesProcessBetweenHosts) {
  Process& p = h1.create_process("mover");
  const Pid pid = p.pid();
  double done_at = -1;
  auto program = [&]() -> sim::Proc {
    co_await p.compute(2.0);
    done_at = eng.now();
  };
  p.run(program());
  std::unique_ptr<Process> moved = h1.release(pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(h1.find(pid), nullptr);
  Process& q = h2.adopt(std::move(moved));
  EXPECT_EQ(&q.host(), &h2);
  EXPECT_EQ(h2.find(pid), &q);
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST_F(HostFixture, ReleaseUnknownPidReturnsNull) {
  EXPECT_EQ(h1.release(424242), nullptr);
}

TEST_F(HostFixture, CrashKillsProcessesDetachesNicAndNotifies) {
  Process& p = h1.create_process("victim");
  bool completed = false;
  auto program = [&]() -> sim::Proc {
    co_await p.compute(100.0);
    completed = true;
  };
  p.run(program());
  std::vector<HostEvent> events;
  h1.add_observer([&](Host&, HostEvent ev) { events.push_back(ev); });

  eng.schedule_at(1.0, [&] { h1.crash(); });
  eng.run();
  EXPECT_FALSE(h1.up());
  EXPECT_FALSE(p.alive());
  EXPECT_FALSE(completed);
  EXPECT_FALSE(net.ethernet().attached(h1.node()));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], HostEvent::kCrash);

  h1.recover();
  EXPECT_TRUE(h1.up());
  EXPECT_TRUE(net.ethernet().attached(h1.node()));
  EXPECT_EQ(h1.process_count(), 0u);  // the zombie was reaped on reboot
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], HostEvent::kRecover);
}

TEST_F(HostFixture, CrashStrandsCrashRecoverableProcess) {
  Process& p = h1.create_process("watched");
  p.set_crash_recoverable(true);
  bool completed = false;
  auto program = [&]() -> sim::Proc {
    co_await p.compute(10.0);
    completed = true;
  };
  p.run(program());
  eng.schedule_at(1.0, [&] { h1.crash(); });
  eng.run();
  // Spared, not killed: the process survives for checkpoint recovery, but
  // its burst is detached so it makes no progress.
  EXPECT_TRUE(p.alive());
  EXPECT_FALSE(completed);
  EXPECT_EQ(h1.find(p.pid()), &p);
  h1.recover();
  EXPECT_EQ(h1.process_count(), 1u);  // still stranded after the reboot
}

TEST_F(HostFixture, FreezeStallsComputeAndUnfreezeResumesIt) {
  Process& p = h1.create_process("worker");
  double done_at = -1;
  auto program = [&]() -> sim::Proc {
    co_await p.compute(4.0);
    done_at = eng.now();
  };
  p.run(program());
  eng.schedule_at(1.0, [&] { h1.freeze(); });
  eng.schedule_at(6.0, [&] { h1.unfreeze(); });
  eng.run();
  EXPECT_TRUE(p.alive());
  // 1 s of work, 5 s frozen, then the remaining 3 s: done at t=9.
  EXPECT_DOUBLE_EQ(done_at, 9.0);
}

TEST_F(HostFixture, RemovedObserverIsNotNotified) {
  std::vector<HostEvent> kept;
  std::vector<HostEvent> removed;
  h1.add_observer([&](Host&, HostEvent ev) { kept.push_back(ev); });
  const std::uint64_t id =
      h1.add_observer([&](Host&, HostEvent ev) { removed.push_back(ev); });
  h1.crash();
  h1.remove_observer(id);
  h1.recover();
  EXPECT_EQ(kept, (std::vector<HostEvent>{HostEvent::kCrash,
                                          HostEvent::kRecover}));
  EXPECT_EQ(removed, std::vector<HostEvent>{HostEvent::kCrash});
}

TEST_F(HostFixture, CrashAndRecoverAreIdempotent) {
  h1.crash();
  h1.crash();  // no-op
  EXPECT_FALSE(h1.up());
  h1.recover();
  h1.recover();  // no-op
  EXPECT_TRUE(h1.up());
}

}  // namespace
}  // namespace cpe::os
