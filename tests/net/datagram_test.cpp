#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace cpe::net {
namespace {

struct DatagramFixture : ::testing::Test {
  sim::Engine eng;
  Network net{eng};
  NodeId h1 = net.add_node("host1");
  NodeId h2 = net.add_node("host2");
};

TEST_F(DatagramFixture, DeliversPayloadToBoundHandler) {
  std::string got;
  net.datagrams().bind(h2, 7, [&](Datagram d) {
    got = std::any_cast<std::string>(d.payload);
  });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(
        Datagram{h1, h2, 7, 100, std::string("hello")});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(got, "hello");
}

TEST_F(DatagramFixture, ThrowsWithoutHandler) {
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 9, 10, {}});
  };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(DatagramFixture, UnbindRemovesHandler) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.datagrams().unbind(h2, 7);
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 10, {}});
  };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(DatagramFixture, RebindReplacesHandler) {
  int first = 0, second = 0;
  net.datagrams().bind(h2, 7, [&](Datagram) { ++first; });
  net.datagrams().bind(h2, 7, [&](Datagram) { ++second; });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 10, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(DatagramFixture, LargeMessageFragmentsOnTheWire) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 100'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  // 100 kB / 4 kB fragments = 25 fragments, each ~3 data frames + 1 ack.
  EXPECT_GT(net.ethernet().total_frames(), 80u);
}

TEST_F(DatagramFixture, DaemonRouteSlowerThanRawWire) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  double done_at = -1;
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000'000, {}});
    done_at = eng.now();
  };
  sim::spawn(eng, body());
  eng.run();
  const double goodput = 1'000'000 / done_at;  // B/s
  // Slower than TCP (~1.12 MB/s) because of per-fragment stop-and-wait.
  EXPECT_LT(goodput, 1.05e6);
  EXPECT_GT(goodput, 0.6e6);
}

TEST_F(DatagramFixture, LocalDeliveryBypassesMedium) {
  bool got = false;
  net.datagrams().bind(h1, 7, [&](Datagram) { got = true; });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h1, 7, 50'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.ethernet().total_frames(), 0u);
}

TEST_F(DatagramFixture, OrderPreservedBetweenPair) {
  std::vector<int> got;
  net.datagrams().bind(h2, 7, [&](Datagram d) {
    got.push_back(std::any_cast<int>(d.payload));
  });
  auto body = [&]() -> sim::Proc {
    for (int i = 0; i < 5; ++i)
      co_await net.datagrams().send(Datagram{h1, h2, 7, 5000, i});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(DatagramFixture, SurvivesLossyNetworkViaRetransmission) {
  int delivered = 0;
  net.datagrams().bind(h2, 7, [&](Datagram) { ++delivered; });
  net.datagrams().set_loss_probability(0.3);
  auto body = [&]() -> sim::Proc {
    for (int i = 0; i < 10; ++i)
      co_await net.datagrams().send(Datagram{h1, h2, 7, 20'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_GT(net.datagrams().fragments_retransmitted(), 0u);
}

TEST_F(DatagramFixture, GivesUpAfterMaxRetries) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.datagrams().set_loss_probability(1.0);  // black hole
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 100, {}});
  };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(DatagramFixture, LossyDeliveryIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Engine eng2;
    Network net2(eng2, EthernetParams{}, DatagramParams{}, seed);
    NodeId a = net2.add_node("a");
    NodeId b = net2.add_node("b");
    net2.datagrams().bind(b, 7, [](Datagram) {});
    net2.datagrams().set_loss_probability(0.2);
    auto body = [&]() -> sim::Proc {
      co_await net2.datagrams().send(Datagram{a, b, 7, 100'000, {}});
    };
    sim::spawn(eng2, body());
    eng2.run();
    return eng2.now();
  };
  EXPECT_DOUBLE_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST_F(DatagramFixture, DetachedReceiverExhaustsRetriesWithTypedError) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h2, false);
  std::optional<DeliveryError> caught;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 10'000, {}});
    } catch (const DeliveryError& e) {
      caught = e;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(caught->dst(), h2);
  EXPECT_EQ(caught->fragment(), 0u);
  // Every attempt beyond the first was counted as a retransmission.
  EXPECT_EQ(net.datagrams().fragments_retransmitted(),
            static_cast<std::uint64_t>(net.datagrams().params().max_retries) +
                1);
}

TEST_F(DatagramFixture, DeliveryErrorReportsTheFailingFragment) {
  // Receiver detaches mid-message: fragment 0 is delivered, a later one
  // exhausts its retries and the error names it.
  net.datagrams().bind(h2, 7, [](Datagram) {});
  eng.schedule_at(0.05, [&] { net.ethernet().set_attached(h2, false); });
  std::optional<DeliveryError> caught;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 200'000, {}});
    } catch (const DeliveryError& e) {
      caught = e;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  ASSERT_TRUE(caught.has_value());
  EXPECT_GT(caught->fragment(), 0u);
}

TEST_F(DatagramFixture, DetachedSenderFailsFast) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h1, false);
  bool threw = false;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 100, {}});
    } catch (const DeliveryError&) {
      threw = true;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(threw);
}

TEST_F(DatagramFixture, ShortOutageIsRiddenOutByRetransmission) {
  // A transient freeze shorter than the retry budget: the message arrives.
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h2, false);
  eng.schedule_at(0.3, [&] { net.ethernet().set_attached(h2, true); });
  bool delivered = false;
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
    delivered = true;
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(net.datagrams().fragments_retransmitted(), 0u);
}

TEST_F(DatagramFixture, PerDestinationCountersTrackDropsAndFailures) {
  // The GS blacklist notes surface these counters; they must attribute
  // trouble to the destination that caused it and to no one else.
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h2, false);
  bool threw = false;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
    } catch (const DeliveryError&) {
      threw = true;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(threw);
  // Every attempt on the dead destination was a drop; the exhausted send is
  // one delivery error.  The healthy node's ledger stays clean.
  EXPECT_GT(net.datagrams().drops_to(h2), 0u);
  EXPECT_EQ(net.datagrams().delivery_errors_to(h2), 1u);
  EXPECT_EQ(net.datagrams().drops_to(h1), 0u);
  EXPECT_EQ(net.datagrams().delivery_errors_to(h1), 0u);
}

TEST_F(DatagramFixture, PartitionBlocksTrafficUntilHealed) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_partition_group(h2, 1);
  EXPECT_FALSE(net.ethernet().reachable(h1, h2));
  EXPECT_TRUE(net.ethernet().reachable(h1, h1));  // self always reachable
  bool threw = false;
  int delivered = 0;
  auto cut_off = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
    } catch (const DeliveryError&) {
      threw = true;
    }
  };
  sim::spawn(eng, cut_off());
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_GT(net.datagrams().drops_to(h2), 0u);
  // Heal: group 0 restores full connectivity and traffic flows again.
  net.ethernet().set_partition_group(h2, 0);
  EXPECT_TRUE(net.ethernet().reachable(h1, h2));
  net.datagrams().bind(h2, 7, [&](Datagram) { ++delivered; });
  auto healed = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
  };
  sim::spawn(eng, healed());
  eng.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(DatagramFixture, SameIslandStillCommunicatesDuringPartition) {
  // A partition cuts islands apart but traffic *within* each island flows.
  const NodeId h3 = net.add_node("host3");
  net.ethernet().set_partition_group(h2, 1);
  net.ethernet().set_partition_group(h3, 1);
  EXPECT_TRUE(net.ethernet().reachable(h2, h3));
  EXPECT_FALSE(net.ethernet().reachable(h1, h3));
  int delivered = 0;
  net.datagrams().bind(h3, 7, [&](Datagram) { ++delivered; });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h2, h3, 7, 1'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(delivered, 1);
}

/// Two ports bound on each of 1,024 nodes, as a fleet's pvmds and load
/// agents bind them: every handler keeps count of what it heard, and a
/// datagram's payload names the (node, port) slot it was sent to.
struct FleetDemux : ::testing::Test {
  static constexpr int kNodes = 1024;
  static constexpr std::uint16_t kPorts[2] = {7, 1021};

  sim::Engine eng;
  Network net{eng};
  std::vector<NodeId> nodes;
  std::vector<int> heard = std::vector<int>(2 * kNodes, 0);  ///< by slot
  int misrouted = 0;  ///< deliveries a handler heard for another slot
  int others = 0;     ///< deliveries to pairs bound outside the slots

  FleetDemux() {
    for (int i = 0; i < kNodes; ++i)
      nodes.push_back(net.add_node("n" + std::to_string(i)));
    for (int slot = 0; slot < 2 * kNodes; ++slot) bind_slot(slot, slot);
  }
  /// Bind `slot`'s pair to a handler that counts into heard[counter].
  void bind_slot(int slot, int counter) {
    net.datagrams().bind(node_of(slot), port_of(slot),
                         [this, slot, counter](Datagram d) {
                           if (std::any_cast<int>(d.payload) == slot &&
                               d.dst == node_of(slot) &&
                               d.port == port_of(slot))
                             ++heard[static_cast<std::size_t>(counter)];
                           else
                             ++misrouted;
                         });
  }
  [[nodiscard]] DatagramService& dg() { return net.datagrams(); }
  [[nodiscard]] int heard_at(int slot) const {
    return heard[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] NodeId node_of(int slot) const {
    return nodes[static_cast<std::size_t>(slot / 2)];
  }
  [[nodiscard]] static std::uint16_t port_of(int slot) {
    return kPorts[slot % 2];
  }
  /// One datagram to each slot in `slots`, each from the next node over.
  void send_to(const std::vector<int>& slots) {
    for (const int slot : slots) {
      const NodeId src = nodes[static_cast<std::size_t>((slot / 2 + 1) %
                                                        kNodes)];
      auto body = [](DatagramService* dg, Datagram d) -> sim::Proc {
        co_await dg->send(std::move(d));
      };
      sim::spawn(eng, body(&net.datagrams(),
                           Datagram(src, node_of(slot), port_of(slot), 64,
                                    slot)));
    }
    eng.run();
  }
};

TEST_F(FleetDemux, EveryDatagramReachesExactlyItsOwnHandler) {
  // Rebind one pair: from now on only the new handler may hear it.  The
  // new handler counts into the slot of an unbound pair, which hears
  // nothing otherwise.
  constexpr int kRebound = 2 * 500;
  const std::vector<int> unbound = {2 * 3 + 1, 2 * 400, 2 * 1023 + 1};
  for (const int slot : unbound) net.datagrams().unbind(node_of(slot),
                                                        port_of(slot));
  bind_slot(kRebound, unbound[0]);

  std::vector<int> bound;
  for (int slot = 0; slot < 2 * kNodes; ++slot)
    if (std::find(unbound.begin(), unbound.end(), slot) == unbound.end())
      bound.push_back(slot);
  send_to(bound);  // the reliable path delivers through deliver()
  EXPECT_EQ(misrouted, 0);
  for (const int slot : bound) {
    if (slot != kRebound) {
      EXPECT_EQ(heard_at(slot), 1) << "slot " << slot;
    }
  }
  EXPECT_EQ(heard_at(kRebound), 0);
  EXPECT_EQ(heard_at(unbound[0]), 1);  // the rebound pair's new handler
  EXPECT_EQ(heard_at(unbound[1]) + heard_at(unbound[2]), 0);

  // Held deliveries go through try_deliver(): a datagram for an unbound
  // pair becomes a counted drop at its node, not an error.
  net.set_adversary({.reorder_probability = 1.0, .reorder_horizon = 0.01});
  std::vector<int> all(2 * kNodes);
  std::iota(all.begin(), all.end(), 0);
  send_to(all);
  EXPECT_EQ(misrouted, 0);
  for (const int slot : bound) {
    if (slot != kRebound) {
      EXPECT_EQ(heard_at(slot), 2) << "slot " << slot;
    }
  }
  EXPECT_EQ(heard_at(kRebound), 0);
  EXPECT_EQ(heard_at(unbound[0]), 2);
  EXPECT_EQ(net.datagrams().drops_total(), unbound.size());
  for (const int slot : unbound)
    EXPECT_EQ(net.datagrams().drops_to(node_of(slot)), 1u) << "slot " << slot;
}

TEST_F(FleetDemux, HandlerMayBindAndUnbindOtherPairsDuringItsDelivery) {
  // While it runs, the handler on (node 0, port 9) unbinds node 1's port 7
  // and binds 4,096 new pairs, enough to regrow any contiguous table, and
  // only then uses its captures.  The closure is two pointers, so it lives
  // inside the std::function: a table that moved the running handler would
  // have it read freed memory (which ASan reports).
  std::vector<int> seen;
  dg().bind(nodes[0], 9, [this, &seen](Datagram d) {
    dg().unbind(nodes[1], 7);
    for (std::uint16_t port = 9000; port < 9004; ++port)
      for (const NodeId node : nodes)
        dg().bind(node, port, [this](Datagram) { ++others; });
    seen.push_back(std::any_cast<int>(d.payload));
  });
  auto send = [](DatagramService* s, Datagram d) -> sim::Proc {
    co_await s->send(std::move(d));
  };
  sim::spawn(eng, send(&dg(), Datagram(nodes[5], nodes[0], 9, 64, 42)));
  eng.run();
  EXPECT_EQ(seen, std::vector<int>{42});

  // The pairs it bound hear their datagrams; the pair it unbound is gone.
  int sent = 0;
  for (std::uint16_t port = 9000; port < 9004; ++port) {
    for (std::size_t i = 0; i < nodes.size(); i += 97, ++sent)
      sim::spawn(eng, send(&dg(), Datagram(nodes[5], nodes[i], port, 64, {})));
  }
  eng.run();
  EXPECT_EQ(others, sent);
  net.set_adversary({.reorder_probability = 1.0, .reorder_horizon = 0.01});
  send_to({2 * 1});
  EXPECT_EQ(heard_at(2 * 1), 0);
  EXPECT_EQ(dg().drops_to(nodes[1]), 1u);
  EXPECT_EQ(misrouted, 0);
}

}  // namespace
}  // namespace cpe::net
