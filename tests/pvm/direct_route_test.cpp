// The direct task-to-task TCP route (pvm_setopt PvmRouteDirect).
#include <gtest/gtest.h>

#include "mpvm/mpvm.hpp"
#include "support/pvm_fixture.hpp"

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;

struct DirectRouteTest : WorknetFixture {};

TEST_F(DirectRouteTest, DeliversPayload) {
  std::string got;
  vm.register_program("dst", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 1);
    got = t.rbuf().upk_str();
  });
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    t.set_direct_route(true);
    t.initsend().pk_str("via direct tcp");
    co_await t.send(Tid::make(1, 1), 1);
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_EQ(got, "via direct tcp");
}

TEST_F(DirectRouteTest, BulkTransferFasterThanDaemonRoute) {
  auto timed = [&](bool direct) {
    sim::Engine e;
    net::Network n(e);
    os::Host a(e, n, os::HostConfig("a"));
    os::Host b(e, n, os::HostConfig("b"));
    PvmSystem v(e, n);
    v.add_host(a);
    v.add_host(b);
    double delivered_at = -1;
    v.register_program("dst", [&](Task& t) -> sim::Co<void> {
      co_await t.recv(kAny, 1);
      delivered_at = e.now();
    });
    v.register_program("src", [direct](Task& t) -> sim::Co<void> {
      t.set_direct_route(direct);
      t.initsend().pk_double(std::vector<double>(125'000, 0.0));  // 1 MB
      co_await t.send(Tid::make(1, 1), 1);
    });
    auto body = [&]() -> sim::Proc {
      co_await v.spawn("dst", 1, "b");
      co_await v.spawn("src", 1, "a");
    };
    sim::spawn(e, body());
    e.run();
    return delivered_at;
  };
  const double daemon_route = timed(false);
  const double direct_route = timed(true);
  // The direct route skips per-fragment daemon turnarounds: ~1.12 MB/s vs
  // ~0.92 MB/s for a bulk megabyte.
  EXPECT_LT(direct_route, daemon_route * 0.9);
}

TEST_F(DirectRouteTest, FifoPreservedOnOneConnection) {
  std::vector<int> order;
  vm.register_program("dst", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 10; ++i) {
      co_await t.recv(kAny, kAny);
      order.push_back(t.rbuf().upk_int());
    }
  });
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    t.set_direct_route(true);
    for (int i = 0; i < 10; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(1, 1), i % 3);
    }
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("dst", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  std::vector<int> expect(10);
  for (int i = 0; i < 10; ++i) expect[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expect);
}

TEST_F(DirectRouteTest, ReconnectsWhenReceiverMigrates) {
  mpvm::Mpvm mpvm(vm);
  std::vector<int> got;
  vm.register_program("dst", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 12; ++i) {
      co_await t.recv(kAny, 1);
      got.push_back(t.rbuf().upk_int());
    }
  });
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    t.set_direct_route(true);
    for (int i = 0; i < 12; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(0, 1), 1);
      co_await sim::Delay(eng, 1.0);
    }
  });
  auto driver = [&]() -> sim::Proc {
    auto dst = co_await vm.spawn("dst", 1, "host1");
    // Sender on the third host, so the pair stays remote after migration.
    co_await vm.spawn("src", 1, "sparc1");
    co_await sim::Delay(eng, 5.0);
    co_await mpvm.migrate(dst[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  std::vector<int> expect(12);
  for (int i = 0; i < 12; ++i) expect[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(got, expect);
  const obs::Counter* reconnects =
      vm.metrics().find_counter("pvm.direct.reconnects");
  ASSERT_NE(reconnects, nullptr);
  EXPECT_EQ(reconnects->value(), 1u);
}

TEST_F(DirectRouteTest, SendToDeadTaskDropped) {
  vm.register_program("ghost", [](Task&) -> sim::Co<void> { co_return; });
  vm.register_program("src", [&](Task& t) -> sim::Co<void> {
    t.set_direct_route(true);
    co_await sim::Delay(eng, 5.0);
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(1, 1), 1);
    co_await sim::Delay(eng, 2.0);
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("ghost", 1, "host2");
    co_await vm.spawn("src", 1, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  const obs::Counter* dropped =
      vm.metrics().find_counter("pvm.messages_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 1u);
}

TEST_F(DirectRouteTest, LocalSendsStillUseLocalPath) {
  // Direct routing only affects remote destinations.
  bool got = false;
  vm.register_program("pair", [&](Task& t) -> sim::Co<void> {
    if (t.tid().task_num() == 1) {
      co_await t.recv(kAny, 1);
      got = true;
    } else {
      t.set_direct_route(true);
      t.initsend().pk_int(1);
      co_await t.send(Tid::make(0, 1), 1);
    }
  });
  auto body = [&]() -> sim::Proc {
    co_await vm.spawn("pair", 2, "host1");
  };
  sim::spawn(eng, body());
  run_all();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.ethernet().total_frames(), 0u);  // never touched the wire
}

}  // namespace
}  // namespace cpe::pvm
