#include "pvm/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/pvm_fixture.hpp"

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;

struct PvmSystemTest : WorknetFixture {};

TEST_F(PvmSystemTest, SpawnPlacesRoundRobin) {
  vm.register_program("noop", [](Task&) -> sim::Co<void> { co_return; });
  std::vector<Tid> tids;
  auto body = [&]() -> sim::Proc {
    tids = co_await vm.spawn("noop", 6);
  };
  sim::spawn(eng, body());
  run_all();
  ASSERT_EQ(tids.size(), 6u);
  EXPECT_EQ(tids[0].host_index(), 0u);
  EXPECT_EQ(tids[1].host_index(), 1u);
  EXPECT_EQ(tids[2].host_index(), 2u);
  EXPECT_EQ(tids[3].host_index(), 0u);
}

TEST_F(PvmSystemTest, RegistryHoldsEveryTaskInLogicalTidOrder) {
  // Tids grow per daemon, so round-robin spawns across three hosts, and a
  // later batch on the first host, land mid-registry, not at its end.
  vm.register_program("idle", [](Task& t) -> sim::Co<void> {
    co_await t.compute(1.0);
  });
  std::vector<Tid> spawned;
  auto body = [&]() -> sim::Proc {
    spawned = co_await vm.spawn("idle", 7);
    for (const Tid t : co_await vm.spawn("idle", 2, "host1"))
      spawned.push_back(t);
  };
  sim::spawn(eng, body());
  run_all();
  const std::vector<Task*>& all = vm.all_tasks();
  ASSERT_EQ(all.size(), 9u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1]->tid().raw(), all[i]->tid().raw()) << "at " << i;
  std::vector<std::int32_t> want;
  for (const Tid t : spawned) want.push_back(t.raw());
  std::sort(want.begin(), want.end());
  std::vector<std::int32_t> got;
  for (const Task* t : all) got.push_back(t->tid().raw());
  EXPECT_EQ(got, want);
}

TEST_F(PvmSystemTest, SpawnOnNamedHost) {
  vm.register_program("noop", [](Task&) -> sim::Co<void> { co_return; });
  std::vector<Tid> tids;
  auto body = [&]() -> sim::Proc {
    tids = co_await vm.spawn("noop", 2, "host2");
  };
  sim::spawn(eng, body());
  run_all();
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_EQ(tids[0].host_index(), 1u);
  EXPECT_EQ(tids[1].host_index(), 1u);
}

TEST_F(PvmSystemTest, SpawnUnknownProgramThrows) {
  auto body = [&]() -> sim::Proc { co_await vm.spawn("ghost", 1); };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(PvmSystemTest, SpawnUnknownHostThrows) {
  vm.register_program("noop", [](Task&) -> sim::Co<void> { co_return; });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("noop", 1, "mars"); };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(PvmSystemTest, SpawnChargesForkExecTime) {
  vm.register_program("noop", [](Task&) -> sim::Co<void> { co_return; });
  double spawned_at = -1;
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("noop", 1);
    spawned_at = eng.now();
  };
  sim::spawn(eng, body());
  run_all();
  const auto& c = vm.costs().pvm;
  EXPECT_NEAR(spawned_at, c.spawn_fork_exec + c.enroll, 1e-9);
}

TEST_F(PvmSystemTest, RemoteSendRecvDeliversPayload) {
  vm.register_program("sender", [](Task& t) -> sim::Co<void> {
    t.initsend().pk_double(6.25);
    t.sbuf().pk_str("gradient");
    co_await t.send(Tid::make(1, 1), 42);
  });
  vm.register_program("receiver", [](Task& t) -> sim::Co<void> {
    Message m = co_await t.recv(kAny, 42);
    EXPECT_EQ(t.rbuf().upk_double(), 6.25);
    EXPECT_EQ(t.rbuf().upk_str(), "gradient");
    EXPECT_EQ(m.src, Tid::make(0, 1));
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("receiver", 1, "host2");
    co_await vm.spawn("sender", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
}

TEST_F(PvmSystemTest, LocalSendIsFasterThanRemote) {
  auto time_pair = [&](const std::string& dst_host) {
    sim::Engine e;
    net::Network n(e);
    os::Host a(e, n, os::HostConfig("hostA"));
    os::Host b(e, n, os::HostConfig("hostB"));
    PvmSystem v(e, n);
    v.add_host(a);
    v.add_host(b);
    double delivered_at = -1;
    v.register_program("src", [](Task& t) -> sim::Co<void> {
      Message hello = co_await t.recv(kAny, 0);
      t.initsend().pk_double(std::vector<double>(12'500, 1.0));  // 100 kB
      co_await t.send(hello.src, 1);
    });
    v.register_program("dst", [&delivered_at, &e](Task& t) -> sim::Co<void> {
      co_await sim::Delay(e, 2.0);  // both tasks certainly spawned
      t.initsend().pk_int(0);
      co_await t.send(Tid::make(0, 1), 0);
      co_await t.recv(kAny, 1);
      delivered_at = e.now();
    });
    auto body = [&]() -> sim::Proc {
      co_await v.spawn("src", 1, "hostA");
      co_await v.spawn("dst", 1, dst_host);
    };
    sim::spawn(e, body());
    e.run();
    return delivered_at;
  };
  const double local = time_pair("hostA");
  const double remote = time_pair("hostB");
  EXPECT_LT(local, remote);
}

TEST_F(PvmSystemTest, SendReturnsBeforeDelivery) {
  // pvm_send hands off to the daemon and returns; the wire transfer is
  // asynchronous.
  double send_returned_at = -1;
  double delivered_at = -1;
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    t.initsend().pk_double(std::vector<double>(125'000, 0.0));  // 1 MB
    co_await t.send(Tid::make(1, 1), 1);
    send_returned_at = eng.now();
  });
  vm.register_program("dst", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 1);
    delivered_at = eng.now();
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  // 1 MB over 10 Mb/s is ~1s of wire time; the send must return way before.
  EXPECT_LT(send_returned_at - 0.8, delivered_at - 1.0);
  EXPECT_GT(delivered_at - send_returned_at, 0.5);
}

TEST_F(PvmSystemTest, PerPairFifoPreservedAcrossSizes) {
  // A large message followed by a tiny one from the same sender must arrive
  // in order (the pvmd serializes its outgoing stream).
  std::vector<int> arrival_order;
  vm.register_program("src", [](Task& t) -> sim::Co<void> {
    t.initsend().pk_double(std::vector<double>(50'000, 0.0));  // 400 kB
    co_await t.send(Tid::make(1, 1), 1);
    t.initsend().pk_int(7);  // tiny
    co_await t.send(Tid::make(1, 1), 2);
  });
  vm.register_program("dst", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 2; ++i) {
      Message m = co_await t.recv(kAny, kAny);
      arrival_order.push_back(m.tag);
    }
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_EQ(arrival_order, (std::vector<int>{1, 2}));
}

TEST_F(PvmSystemTest, McastReachesAllDestinations) {
  int received = 0;
  vm.register_program("root", [](Task& t) -> sim::Co<void> {
    std::vector<Tid> kids = co_await t.spawn("leaf", 3);
    t.initsend().pk_int(99);
    co_await t.mcast(kids, 5);
  });
  vm.register_program("leaf", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 5);
    EXPECT_EQ(t.rbuf().upk_int(), 99);
    ++received;
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("root", 1); };
  sim::spawn(eng, body());
  run_all();
  EXPECT_EQ(received, 3);
}

TEST_F(PvmSystemTest, ParentTidVisibleToChild) {
  Tid root_tid;
  vm.register_program("root", [&](Task& t) -> sim::Co<void> {
    root_tid = t.tid();
    co_await t.spawn("child", 1);
    co_await t.recv(kAny, 1);  // wait for the child's ping
  });
  vm.register_program("child", [&](Task& t) -> sim::Co<void> {
    EXPECT_EQ(t.parent(), root_tid);
    t.initsend().pk_int(0);
    co_await t.send(t.parent(), 1);
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("root", 1); };
  sim::spawn(eng, body());
  run_all();
}

TEST_F(PvmSystemTest, TrecvTimesOutWhenNoMessage) {
  bool timed_out = false;
  vm.register_program("lonely", [&](Task& t) -> sim::Co<void> {
    auto m = co_await t.trecv(kAny, 1, 2.0);
    timed_out = !m.has_value();
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("lonely", 1); };
  sim::spawn(eng, body());
  run_all();
  EXPECT_TRUE(timed_out);
}

TEST_F(PvmSystemTest, NrecvAndProbe) {
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 2.0);  // receiver certainly enrolled
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(1, 1), 9);
  });
  vm.register_program("dst", [&](Task& t) -> sim::Co<void> {
    EXPECT_FALSE(t.probe(kAny, 9));
    EXPECT_EQ(t.nrecv(kAny, 9), std::nullopt);
    co_await sim::Delay(eng, 6.0);  // let the message arrive
    EXPECT_TRUE(t.probe(kAny, 9));
    auto m = t.nrecv(kAny, 9);
    EXPECT_TRUE(m.has_value());
    EXPECT_EQ(t.rbuf().upk_int(), 1);
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
}

TEST_F(PvmSystemTest, GroupJoinBarrierBcast) {
  int through_barrier = 0;
  int bcast_received = 0;
  vm.register_program("member", [&](Task& t) -> sim::Co<void> {
    const int inst = co_await t.joingroup("workers");
    co_await t.barrier("workers", 3);
    ++through_barrier;
    if (inst == 0) {
      t.initsend().pk_int(123);
      co_await t.gbcast("workers", 17);
    } else {
      co_await t.recv(kAny, 17);
      EXPECT_EQ(t.rbuf().upk_int(), 123);
      ++bcast_received;
    }
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("member", 3); };
  sim::spawn(eng, body());
  run_all();
  EXPECT_EQ(through_barrier, 3);
  EXPECT_EQ(bcast_received, 2);
}

TEST_F(PvmSystemTest, BarrierActuallyBlocksUntilAllArrive) {
  std::vector<double> release_times;
  vm.register_program("member", [&](Task& t) -> sim::Co<void> {
    const int inst = co_await t.joingroup("g");
    co_await sim::Delay(eng, static_cast<double>(inst) * 10.0);
    co_await t.barrier("g", 3);
    release_times.push_back(eng.now());
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("member", 3); };
  sim::spawn(eng, body());
  run_all();
  ASSERT_EQ(release_times.size(), 3u);
  // All released at (or just after) the last arrival at ~t_spawn + 20.
  for (double t : release_times) EXPECT_GT(t, 20.0);
  EXPECT_NEAR(release_times[0], release_times[2], 0.01);
}

TEST_F(PvmSystemTest, TaskComputeRunsOnItsHostCpu) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    const double start = eng.now();
    co_await t.compute(4.0);
    EXPECT_NEAR(eng.now() - start, 4.0, 1e-9);
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("worker", 1, "host1"); };
  sim::spawn(eng, body());
  run_all();
}

TEST_F(PvmSystemTest, ComputeOnSlowerHostTakesLonger) {
  double hppa_time = -1, sparc_time = -1;
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    const double start = eng.now();
    co_await t.compute(4.0);
    (t.pvmd().host().arch() == "SPARC" ? sparc_time : hppa_time) =
        eng.now() - start;
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("worker", 1, "host1");
    co_await vm.spawn("worker", 1, "sparc1");
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_NEAR(hppa_time, 4.0, 1e-9);
  EXPECT_NEAR(sparc_time, 4.0 / 0.8, 1e-6);
}

TEST_F(PvmSystemTest, WaitExitAndLiveCount) {
  vm.register_program("short", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(1.0);
  });
  bool exited_seen = false;
  auto body = [&]() -> sim::Proc {
    auto tids = co_await vm.spawn("short", 2);
    EXPECT_EQ(vm.live_task_count(), 2u);
    co_await vm.wait_exit(tids[0]);
    co_await vm.wait_all_exited();
    exited_seen = true;
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_TRUE(exited_seen);
}

TEST_F(PvmSystemTest, MessageToExitedTaskIsDropped) {
  vm.register_program("ghost", [](Task&) -> sim::Co<void> { co_return; });
  vm.register_program("talker", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 5.0);  // ghost long gone
    t.initsend().pk_int(0);
    co_await t.send(Tid::make(0, 1), 1);
    co_await sim::Delay(eng, 5.0);
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("ghost", 1, "host1");
    co_await vm.spawn("talker", 1, "host2");
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_NE(vm.trace().find("pvmd", "dropping"), nullptr);
}

TEST_F(PvmSystemTest, SendWithoutInitsendThrows) {
  vm.register_program("bad", [](Task& t) -> sim::Co<void> {
    co_await t.send(Tid::make(0, 1), 1);
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("bad", 1); };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), ContractError);
}

TEST_F(PvmSystemTest, StatsCountRoutedMessages) {
  vm.register_program("src", [](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 3; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(1, 1), 1);
    }
  });
  vm.register_program("dst", [](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 3; ++i) co_await t.recv(kAny, 1);
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_EQ(vm.messages_routed(), 3u);
  // Three one-int messages: each is a header plus 4 payload bytes on the wire.
  EXPECT_EQ(vm.bytes_routed(), 3 * (Buffer::kItemHeaderBytes + 4u));
  // The metrics registry sees the same traffic as the legacy counters.
  const obs::Counter* msgs = vm.metrics().find_counter("pvm.messages_routed");
  const obs::Counter* bytes = vm.metrics().find_counter("pvm.bytes_routed");
  ASSERT_NE(msgs, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(msgs->value(), vm.messages_routed());
  EXPECT_EQ(bytes->value(), vm.bytes_routed());
}

TEST_F(PvmSystemTest, RoutedBytesMatchPackedWireSize) {
  // The byte-accounting identity: what the sender's Buffer says it packed is
  // exactly what the router charges.  Before the wire-header fix these
  // disagreed (scalars and arrays traveled header-free), so the calibrated
  // migration cost model undercounted every multi-item message.
  std::size_t packed = 0;
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    Buffer& b = t.initsend();
    b.pk_int(1);
    b.pk_double(std::vector<double>(16, 0.25));
    b.pk_str("wire-size identity");
    packed = b.bytes();
    co_await t.send(Tid::make(1, 1), 9);
  });
  vm.register_program("dst", [](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 9);
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  ASSERT_GT(packed, 0u);
  EXPECT_EQ(vm.bytes_routed(), packed);
}

TEST_F(PvmSystemTest, PingPongLatencyIsMilliseconds) {
  // Round-trip of tiny messages between two hosts: dominated by daemon
  // hops and per-fragment turnaround, i.e. a few ms each way in 1994.
  double rtt = -1;
  vm.register_program("ping", [&](Task& t) -> sim::Co<void> {
    std::vector<Tid> peer = co_await t.spawn("pong", 1, "host2");
    const double start = eng.now();
    t.initsend().pk_int(1);
    co_await t.send(peer[0], 1);
    co_await t.recv(kAny, 2);
    rtt = eng.now() - start;
  });
  vm.register_program("pong", [](Task& t) -> sim::Co<void> {
    Message m = co_await t.recv(kAny, 1);
    t.initsend().pk_int(2);
    co_await t.send(m.src, 2);
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("ping", 1, "host1"); };
  sim::spawn(eng, body());
  run_all();
  EXPECT_GT(rtt, 1e-3);
  EXPECT_LT(rtt, 50e-3);
}

}  // namespace
}  // namespace cpe::pvm

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;
struct GroupOpsTest : WorknetFixture {};

TEST_F(GroupOpsTest, GettidGetinstGsize) {
  vm.register_program("member", [&](Task& t) -> sim::Co<void> {
    const int inst = co_await t.joingroup("g");
    co_await t.barrier("g", 3);
    EXPECT_EQ(t.getinst("g"), inst);
    EXPECT_EQ(t.gsize("g"), 3u);
    EXPECT_EQ(t.gettid("g", inst), t.tid());
    EXPECT_FALSE(t.gettid("g", 99).valid());
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("member", 3); };
  sim::spawn(eng, body());
  run_all();
}

TEST_F(GroupOpsTest, LeavegroupShrinksMembership) {
  int final_size = -1;
  vm.register_program("member", [&](Task& t) -> sim::Co<void> {
    const int inst = co_await t.joingroup("g");
    co_await t.barrier("g", 3);
    if (inst == 2) co_await t.leavegroup("g");
    co_await sim::Delay(eng, 1.0);
    if (inst == 0) final_size = static_cast<int>(t.gsize("g"));
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("member", 3); };
  sim::spawn(eng, body());
  run_all();
  EXPECT_EQ(final_size, 2);
}

TEST_F(GroupOpsTest, ReduceSumAccumulatesAtRoot) {
  std::vector<double> root_result;
  vm.register_program("member", [&](Task& t) -> sim::Co<void> {
    const int inst = co_await t.joingroup("g");
    co_await t.barrier("g", 4);
    std::vector<double> v{static_cast<double>(inst + 1), 10.0};
    co_await t.reduce_sum("g", v, 42, /*root_inst=*/0);
    if (inst == 0) root_result = v;
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("member", 4); };
  sim::spawn(eng, body());
  run_all();
  ASSERT_EQ(root_result.size(), 2u);
  EXPECT_DOUBLE_EQ(root_result[0], 1 + 2 + 3 + 4);
  EXPECT_DOUBLE_EQ(root_result[1], 40.0);
}

TEST_F(GroupOpsTest, TasksAndConfigQueries) {
  vm.register_program("prober", [&](Task& t) -> sim::Co<void> {
    co_await t.joingroup("probers");
    co_await t.barrier("probers", 3);  // everyone alive now
    EXPECT_EQ(t.host_count(), 3u);
    EXPECT_EQ(t.tasks().size(), 3u);  // all three probers alive
    co_await t.barrier("probers", 3);  // nobody exits before the checks
  });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("prober", 3); };
  sim::spawn(eng, body());
  run_all();
}

}  // namespace
}  // namespace cpe::pvm
