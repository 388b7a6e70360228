#include "load/exchange.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "support/pvm_fixture.hpp"

namespace cpe::load {
namespace {

using test::WorknetFixture;

TEST_F(WorknetFixture, GossipBuildsAFullMapOnASmallWorknet) {
  host1.cpu().set_external_jobs(4);
  LoadExchange x(vm);
  x.start(20.0);
  eng.run_until(20.0);
  // Three hosts, two peers a round: everyone hears about everyone within a
  // few rounds.
  for (const os::Host* at : {&host1, &host2, &sparc}) {
    const std::vector<LoadEntry> v = x.view(*at);
    ASSERT_EQ(v.size(), 3u) << "partial map at " << at->name();
  }
  EXPECT_GT(x.rounds(), 0u);
  EXPECT_GT(x.entries_merged(), 0u);
  // host2's map has host1's load (gossiped, not polled).
  const auto e = x.entry_at(host2, host1);
  ASSERT_TRUE(e);
  EXPECT_GT(e->sample.index, 2.0);  // EWMA converging toward 4
  EXPECT_TRUE(e->sample.owner_active);
}

TEST_F(WorknetFixture, OwnEntryIsAlwaysLiveInTheView) {
  LoadExchange x(vm);
  host1.cpu().set_external_jobs(6);  // no gossip has run yet
  for (const LoadEntry& e : x.view(host1)) {
    if (e.host == "host1") {
      EXPECT_DOUBLE_EQ(e.instant, 6.0);
    }
  }
}

TEST_F(WorknetFixture, EntriesCarryTheOriginStampNotTheArrivalTime) {
  host1.cpu().set_external_jobs(2);
  LoadExchange x(vm);
  x.start(10.0);
  eng.run_until(10.0);
  const auto e = x.entry_at(host2, host1);
  ASSERT_TRUE(e);
  EXPECT_LE(e->stamp, eng.now());
  EXPECT_GE(e->stamp, 0.0);
}

TEST_F(WorknetFixture, CrashedHostEntriesAgeOutOfTheMaps) {
  ExchangePolicy p;
  p.staleness_bound = 2.0;
  LoadExchange x(vm, p);
  x.start(40.0);
  auto driver = [](sim::Engine* e, os::Host* victim) -> sim::Co<void> {
    co_await sim::Delay(*e, 5.0);
    victim->crash();
  };
  sim::spawn(eng, driver(&eng, &sparc));
  eng.run_until(40.0);
  // sparc stopped refreshing at t=5; by t=40 its last entry is far past
  // 3x the staleness bound and must have been garbage-collected.
  EXPECT_FALSE(x.entry_at(host1, sparc));
  EXPECT_FALSE(x.entry_at(host2, sparc));
}

TEST_F(WorknetFixture, CrashedHostNeitherSendsNorWedgesTheExchange) {
  LoadExchange x(vm);
  x.start(20.0);
  auto driver = [](sim::Engine* e, os::Host* victim) -> sim::Co<void> {
    co_await sim::Delay(*e, 2.0);
    victim->crash();
  };
  sim::spawn(eng, driver(&eng, &host2));
  eng.run_until(20.0);  // must not throw DeliveryError out of the loops
  // The survivors still gossip to each other.
  EXPECT_TRUE(x.entry_at(host1, sparc));
  EXPECT_TRUE(x.entry_at(sparc, host1));
}

TEST_F(WorknetFixture, GossipUsesUnreliableDatagrams) {
  LoadExchange x(vm);
  x.start(10.0);
  eng.run_until(10.0);
  (void)vm.metrics().snapshot();  // runs the transport collector
  const obs::Gauge* unreliable =
      vm.metrics().find_gauge("net.datagrams.unreliable_sent");
  ASSERT_NE(unreliable, nullptr);
  EXPECT_GT(unreliable->value(), 0.0);
  EXPECT_EQ(unreliable->value(),
            static_cast<double>(net.datagrams().unreliable_sent()));
  // net.datagrams.sent counts reliable sends only: none on this worknet.
  const obs::Gauge* reliable = vm.metrics().find_gauge("net.datagrams.sent");
  ASSERT_NE(reliable, nullptr);
  EXPECT_EQ(reliable->value(), 0.0);
  EXPECT_GT(vm.metrics().counter("load.gossip.sent").value(), 0u);
}

// ROADMAP O15: a gossip datagram is charged kGossipHeaderBytes whatever its
// vector holds, the charge the simulator has always made.  Pinned on a
// worknet that carries nothing but gossip, so the charge, and every
// virtual-time result it feeds, can only change on purpose.
TEST_F(WorknetFixture, GossipIsChargedItsHeaderBytesOnly) {
  LoadExchange x(vm);
  x.start(10.0);
  eng.run_until(10.0);
  const net::DatagramService& dg = net.datagrams();
  ASSERT_GT(dg.unreliable_sent(), 0u);
  EXPECT_EQ(dg.datagrams_sent(), 0u);
  EXPECT_EQ(dg.payload_bytes_sent(), dg.unreliable_sent() * kGossipHeaderBytes);
}

TEST(LoadExchangeHosts, TwoHostsWithOneNameAreRejected) {
  // Entries travel by host id, but names break selection ties and order
  // view(), so a name must stand for one host.
  sim::Engine e;
  net::Network n(e);
  os::Host a(e, n, os::HostConfig("twin", "HPPA", 1.0));
  os::Host b(e, n, os::HostConfig("twin", "HPPA", 1.0));
  pvm::PvmSystem v(e, n);
  v.add_host(a);
  v.add_host(b);
  try {
    LoadExchange x(v);
    FAIL() << "an exchange over two hosts named \"twin\" was built";
  } catch (const ContractError& err) {
    EXPECT_NE(std::string(err.what()).find("unique_host_name"),
              std::string::npos)
        << err.what();
  }
}

TEST_F(WorknetFixture, ExchangeLeavesNoHostObserverBehind) {
  {
    LoadExchange x(vm);
    x.start(3.0);
    eng.run_until(3.0);
  }
  // A crash now would call into the destroyed exchange had it left its
  // observer on the host (the sanitizer build reports the use).
  host2.crash();
  host2.recover();
  LoadExchange y(vm);
  y.start(10.0);
  eng.run_until(10.0);
  EXPECT_TRUE(y.entry_at(host1, host2));
}

TEST_F(WorknetFixture, OwnEntryIsAbsentFromTheMapUntilTheFirstRound) {
  LoadExchange x(vm);
  EXPECT_FALSE(x.entry_at(host1, host1));
  x.start(5.0);
  eng.run_until(5.0);
  const auto own = x.entry_at(host1, host1);
  ASSERT_TRUE(own);
  EXPECT_GE(own->stamp, 0.0);
  EXPECT_LE(own->stamp, eng.now());
  // A host outside the VM has no slot.
  const os::Host stranger(eng, net, os::HostConfig("stranger", "HPPA", 1.0));
  EXPECT_FALSE(x.entry_at(host1, stranger));
  EXPECT_FALSE(x.entry_at(stranger, host1));
}

TEST(GossipAdversary, DuplicatedGossipMergesExactlyOnce) {
  // Freshest-wins merging is the gossip layer's dedup: an echoed datagram
  // carries entries with the stamps the first copy already delivered, so
  // the replay merges nothing.  A run on a duplicating fabric must
  // converge to the same maps — and the same merge count — as a clean one.
  auto run_once = [](bool duplicated) {
    sim::Engine e;
    net::Network n(e);
    os::Host a(e, n, os::HostConfig("a", "HPPA", 1.0));
    os::Host b(e, n, os::HostConfig("b", "HPPA", 1.0));
    os::Host c(e, n, os::HostConfig("c", "HPPA", 1.0));
    pvm::PvmSystem v(e, n);
    v.add_host(a);
    v.add_host(b);
    v.add_host(c);
    if (duplicated) n.set_adversary({.duplicate_probability = 1.0});
    LoadExchange x(v);
    x.start(20.0);
    e.run_until(20.0);
    std::size_t full_maps = 0;
    for (const os::Host* at : {&a, &b, &c})
      if (x.view(*at).size() == 3u) ++full_maps;
    return std::tuple{full_maps, x.entries_merged(),
                      n.datagrams().duplicates_injected()};
  };
  const auto [clean_maps, clean_merged, clean_dups] = run_once(false);
  const auto [adv_maps, adv_merged, adv_dups] = run_once(true);
  EXPECT_EQ(clean_maps, 3u);
  EXPECT_EQ(adv_maps, 3u);
  EXPECT_EQ(clean_dups, 0u);
  EXPECT_GT(adv_dups, 0u);
  // Every echoed entry was skipped by the stamp check: not one extra merge.
  EXPECT_EQ(adv_merged, clean_merged);
}

TEST_F(WorknetFixture, SensorAccessorsFindEveryDaemonHost) {
  LoadExchange x(vm);
  EXPECT_NE(x.sensor_on(host1), nullptr);
  EXPECT_NE(x.sensor_on(host2), nullptr);
  EXPECT_NE(x.sensor_on(sparc), nullptr);
  os::Host outsider(eng, net, os::HostConfig("outsider", "HPPA", 1.0));
  EXPECT_EQ(x.sensor_on(outsider), nullptr);
}

}  // namespace
}  // namespace cpe::load
