// Golden-model sweep for the load exchange (DESIGN.md §11.2): the dense
// index must keep every map, every view and every counter the name-keyed
// exchange it replaced produced.  The reference below is that exchange,
// transcribed; both run in identical worlds and are compared every
// simulated second.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "load/exchange.hpp"

namespace cpe {
namespace {

using load::ExchangePolicy;
using load::LoadEntry;

/// The name-keyed exchange, transcribed: one std::map per agent, a full
/// sort of the map every round, one payload copy per peer.  Its datagrams
/// are charged kGossipHeaderBytes, the charge the original made (ROADMAP
/// O15).
class ReferenceExchange {
 public:
  ReferenceExchange(pvm::PvmSystem& vm, ExchangePolicy policy)
      : vm_(&vm), policy_(policy), rng_(policy.seed) {
    net::DatagramService& dg = vm.network().datagrams();
    for (const auto& d : vm.daemons()) {
      os::Host& h = d->host();
      agents_.push_back(std::make_unique<Agent>(
          &h, std::make_unique<load::LoadSensor>(h, vm.metrics(),
                                                 policy.sensor),
          rng_.split()));
      Agent* agent = agents_.back().get();
      dg.bind(h.node(), load::kLoadPort, [this, agent](net::Datagram d_in) {
        const auto* gossip = std::any_cast<Gossip>(&d_in.payload);
        if (gossip != nullptr) receive(*agent, *gossip);
      });
    }
  }
  ReferenceExchange(const ReferenceExchange&) = delete;
  ReferenceExchange& operator=(const ReferenceExchange&) = delete;
  ~ReferenceExchange() {
    net::DatagramService& dg = vm_->network().datagrams();
    for (const auto& a : agents_) dg.unbind(a->host->node(), load::kLoadPort);
  }

  void start(sim::Time until) {
    for (const auto& a : agents_) {
      a->sensor->start(until);
      loops_.push_back(sim::launch(vm_->engine(), run_agent(a.get(), until)));
    }
  }

  [[nodiscard]] std::vector<LoadEntry> view(const os::Host& at) const {
    std::vector<LoadEntry> out;
    for (const auto& a : agents_) {
      if (a->host != &at) continue;
      out.reserve(a->map.size() + 1);
      for (const auto& [name, e] : a->map)
        if (name != at.name()) out.push_back(e);
      out.push_back(a->sensor->entry());
      std::sort(out.begin(), out.end(),
                [](const LoadEntry& x, const LoadEntry& y) {
                  return x.host < y.host;
                });
      break;
    }
    return out;
  }

  [[nodiscard]] const LoadEntry* entry_at(const os::Host& at,
                                          const std::string& about) const {
    for (const auto& a : agents_) {
      if (a->host != &at) continue;
      const auto it = a->map.find(about);
      return it == a->map.end() ? nullptr : &it->second;
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t entries_merged() const { return merged_; }
  [[nodiscard]] std::uint64_t stale_dropped() const { return stale_dropped_; }

 private:
  struct Gossip {
    std::string origin;
    std::vector<LoadEntry> entries;
    Gossip() noexcept {}
    Gossip(std::string origin_, std::vector<LoadEntry> entries_)
        : origin(std::move(origin_)), entries(std::move(entries_)) {}
  };
  struct Agent {
    os::Host* host;
    std::unique_ptr<load::LoadSensor> sensor;
    std::map<std::string, LoadEntry> map;
    sim::Rng rng;
    Agent(os::Host* host_, std::unique_ptr<load::LoadSensor> sensor_,
          sim::Rng rng_)
        : host(host_), sensor(std::move(sensor_)), rng(rng_) {}
  };

  void receive(Agent& agent, const Gossip& gossip) {
    const sim::Time now = vm_->engine().now();
    for (const LoadEntry& e : gossip.entries) {
      if (e.host == agent.host->name()) continue;
      if (now - e.stamp > 3.0 * policy_.staleness_bound) {
        ++stale_dropped_;
        continue;
      }
      auto [it, inserted] = agent.map.try_emplace(e.host, e);
      if (!inserted) {
        if (it->second.stamp >= e.stamp) continue;
        it->second = e;
      }
      ++merged_;
    }
  }

  void gossip_round(Agent& agent) {
    const sim::Time now = vm_->engine().now();
    ++rounds_;
    agent.map[agent.host->name()] = agent.sensor->entry();
    std::erase_if(agent.map, [&](const auto& kv) {
      return kv.first != agent.host->name() &&
             now - kv.second.stamp > 3.0 * policy_.staleness_bound;
    });
    std::vector<LoadEntry> entries;
    entries.push_back(agent.map[agent.host->name()]);
    std::vector<const LoadEntry*> rest;
    for (const auto& [name, e] : agent.map)
      if (name != agent.host->name()) rest.push_back(&e);
    std::sort(rest.begin(), rest.end(),
              [](const LoadEntry* a, const LoadEntry* b) {
                return a->stamp != b->stamp ? a->stamp > b->stamp
                                            : a->host < b->host;
              });
    for (const LoadEntry* e : rest) {
      if (entries.size() >= policy_.vector_cap) break;
      entries.push_back(*e);
    }
    std::vector<Agent*> peers;
    for (const auto& a : agents_)
      if (a.get() != &agent && a->host->up()) peers.push_back(a.get());
    const std::size_t sends = std::min(load::kGossipFanout, peers.size());
    for (std::size_t i = 0; i < sends; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(agent.rng.below(peers.size() - i));
      std::swap(peers[i], peers[j]);
      net::Datagram d(agent.host->node(), peers[i]->host->node(),
                      load::kLoadPort, load::kGossipHeaderBytes,
                      Gossip(agent.host->name(), entries));
      auto sender = [](net::DatagramService* dg,
                       net::Datagram dgram) -> sim::Co<void> {
        try {
          co_await dg->send_unreliable(std::move(dgram));
        } catch (const net::DeliveryError&) {
        }
      };
      sim::spawn(vm_->engine(),
                 sender(&vm_->network().datagrams(), std::move(d)));
    }
  }

  sim::Co<void> run_agent(Agent* agent, sim::Time until) {
    sim::Engine& eng = vm_->engine();
    co_await sim::Delay(eng, agent->rng.uniform() * load::kGossipInterval);
    while (eng.now() < until) {
      if (agent->host->up() && !agent->host->frozen()) gossip_round(*agent);
      co_await sim::Delay(eng, load::kGossipInterval);
    }
  }

  pvm::PvmSystem* vm_;
  ExchangePolicy policy_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<sim::ProcHandle> loops_;
  std::uint64_t rounds_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t stale_dropped_ = 0;
};

enum class Fabric { kClean, kCrashRecover, kDupReorder, kLossy };

/// One worknet, built the same way for both exchanges.  Hosts are named
/// h0, h1, ... so name order ("h10" < "h2") differs from id order.
struct World {
  sim::Engine eng;
  net::Network net;
  std::vector<std::unique_ptr<os::Host>> hosts;
  pvm::PvmSystem vm;

  World(int n, Fabric fabric, std::uint64_t seed)
      : net(eng, {}, datagram_params(fabric), seed), vm(eng, net) {
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<os::Host>(
          eng, net, os::HostConfig("h" + std::to_string(i), "HPPA", 1.0)));
      vm.add_host(*hosts.back());
    }
    if (fabric == Fabric::kDupReorder)
      net.set_adversary({.duplicate_probability = 0.3,
                         .reorder_probability = 0.3,
                         .reorder_horizon = 0.8});
    // Owner jobs come and go, so indices, instants and stamps differ
    // between hosts and over time.
    for (int i = 0; i < n; ++i) {
      os::Host* h = hosts[static_cast<std::size_t>(i)].get();
      h->cpu().set_external_jobs(i % 3);
      eng.schedule_at(4.0 + 0.25 * (i % 7),
                      [h, i] { h->cpu().set_external_jobs((i * 5) % 4); });
    }
    if (fabric == Fabric::kCrashRecover) {
      // A quarter of the hosts (at least one) crash, stay down past the
      // 3x staleness GC horizon, then come back between two sensor polls,
      // so a first round after the reboot can gossip a stale own entry
      // (the receivers' stale_dropped path).
      for (const int i : crashed(n)) {
        os::Host* h = hosts[static_cast<std::size_t>(i)].get();
        eng.schedule_at(kCrashAt, [h] { h->crash(); });
        eng.schedule_at(kRecoverAt, [h] { h->recover(); });
      }
    }
  }

  static constexpr sim::Time kCrashAt = 5.5;
  static constexpr sim::Time kRecoverAt = 16.3;
  static std::vector<int> crashed(int n) {
    std::vector<int> out;
    for (int i = 1; i < n; i += 4) out.push_back(i);
    return out;
  }

  static net::DatagramParams datagram_params(Fabric fabric) {
    net::DatagramParams p;
    if (fabric == Fabric::kLossy) p.loss_probability = 0.1;
    return p;
  }
};

std::string describe(const LoadEntry& e) {
  std::ostringstream os;
  os.precision(17);
  os << e.host << "{index " << e.index << ", instant " << e.instant
     << ", external " << e.external_jobs << ", owner " << e.owner_active
     << ", up " << e.up << ", stamp " << e.stamp << "}";
  return os.str();
}

bool same(const LoadEntry& a, const LoadEntry& b) {
  return a.host == b.host && a.index == b.index && a.instant == b.instant &&
         a.external_jobs == b.external_jobs &&
         a.owner_active == b.owner_active && a.up == b.up &&
         a.stamp == b.stamp;
}

/// The first difference between the two exchanges' maps, or "".
std::string first_difference(const World& wx, const load::LoadExchange& x,
                             const World& wr, const ReferenceExchange& r) {
  for (std::size_t i = 0; i < wx.hosts.size(); ++i) {
    const os::Host& hx = *wx.hosts[i];
    const os::Host& hr = *wr.hosts[i];
    const std::vector<LoadEntry> vx = x.view(hx);
    const std::vector<LoadEntry> vr = r.view(hr);
    if (vx.size() != vr.size())
      return "view(" + hx.name() + ") holds " + std::to_string(vx.size()) +
             " entries, reference " + std::to_string(vr.size());
    for (std::size_t k = 0; k < vx.size(); ++k)
      if (!same(vx[k], vr[k]))
        return "view(" + hx.name() + ")[" + std::to_string(k) + "] is " +
               describe(vx[k]) + ", reference " + describe(vr[k]);
    for (const auto& about : wx.hosts) {
      std::optional<LoadEntry> ex;
      if (const auto slot = x.entry_at(hx, *about))
        ex.emplace(about->name(), slot->sample, slot->stamp);
      const LoadEntry* er = r.entry_at(hr, about->name());
      if (ex.has_value() != (er != nullptr))
        return "entry_at(" + hx.name() + ", " + about->name() + ") is " +
               (ex ? describe(*ex) : "null") + ", reference " +
               (er == nullptr ? "null" : describe(*er));
      if (ex && !same(*ex, *er))
        return "entry_at(" + hx.name() + ", " + about->name() + ") is " +
               describe(*ex) + ", reference " + describe(*er);
    }
  }
  if (x.rounds() != r.rounds())
    return "rounds " + std::to_string(x.rounds()) + ", reference " +
           std::to_string(r.rounds());
  if (x.entries_merged() != r.entries_merged())
    return "entries_merged " + std::to_string(x.entries_merged()) +
           ", reference " + std::to_string(r.entries_merged());
  if (x.stale_dropped() != r.stale_dropped())
    return "stale_dropped " + std::to_string(x.stale_dropped()) +
           ", reference " + std::to_string(r.stale_dropped());
  return "";
}

/// Runs both exchanges with `vector_cap` = `cap` in identical worlds of `n`
/// hosts and compares them every simulated second.
void expect_equivalent(int n, std::size_t cap, Fabric fabric, unsigned seed) {
  ExchangePolicy policy;
  policy.seed = seed;
  policy.staleness_bound = 2.0;  // entries age out within the run
  policy.vector_cap = cap;
  const sim::Time horizon = 30.0;

  World wx(n, fabric, seed);
  World wr(n, fabric, seed);
  load::LoadExchange x(wx.vm, policy);
  ReferenceExchange r(wr.vm, policy);
  // A host's own entry enters its map at its first round.
  for (const auto& h : wx.hosts)
    ASSERT_FALSE(x.entry_at(*h, *h)) << h->name();
  x.start(horizon);
  r.start(horizon);

  for (int t = 1; t <= static_cast<int>(horizon); ++t) {
    wx.eng.run_until(t);
    wr.eng.run_until(t);
    ASSERT_EQ(first_difference(wx, x, wr, r), "") << "at t=" << t;
    if (t == 1) {
      // Every agent has had its first round by now.
      for (const auto& h : wx.hosts)
        EXPECT_TRUE(x.entry_at(*h, *h)) << h->name();
    }
    if (fabric == Fabric::kCrashRecover && t == 15) {
      // Down for more than 3x the staleness bound: aged out everywhere.
      for (const int c : World::crashed(n)) {
        const os::Host& gone = *wx.hosts[static_cast<std::size_t>(c)];
        for (const auto& h : wx.hosts) {
          if (h->up()) {
            EXPECT_FALSE(x.entry_at(*h, gone))
                << gone.name() << " still in " << h->name() << "'s map";
          }
        }
      }
    }
  }
  EXPECT_GT(x.rounds(), 0u);
  EXPECT_GT(x.entries_merged(), 0u);
  if (fabric == Fabric::kDupReorder) {
    EXPECT_GT(wx.net.datagrams().duplicates_injected(), 0u);
  }
  EXPECT_EQ(wx.net.datagrams().unreliable_sent(),
            wr.net.datagrams().unreliable_sent());
  EXPECT_EQ(wx.net.datagrams().payload_bytes_sent(),
            wr.net.datagrams().payload_bytes_sent());
}

class ExchangeEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, Fabric, unsigned>> {};

TEST_P(ExchangeEquivalenceSweep, MatchesTheNameKeyedExchangeEverySecond) {
  const auto [n, fabric, seed] = GetParam();
  // Fewer slots than peers, so the freshest-k selection and its name
  // tie-break decide what travels.
  expect_equivalent(n, static_cast<std::size_t>(std::max(2, n / 4)), fabric,
                    seed);
}

/// The selection's edge cases: `vector_cap` 1 (only the sender's own entry
/// travels, nothing is ever selected) and a cap above the host count (the
/// selection never fills, so every live entry travels).
class ExchangeCapSweep
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, Fabric, unsigned>> {};

TEST_P(ExchangeCapSweep, MatchesTheNameKeyedExchangeEverySecond) {
  const auto [n, cap, fabric, seed] = GetParam();
  expect_equivalent(n, cap, fabric, seed);
}

std::string fabric_name(Fabric f) {
  switch (f) {
    case Fabric::kClean: return "clean";
    case Fabric::kCrashRecover: return "crash_recover";
    case Fabric::kDupReorder: return "dup_reorder";
    case Fabric::kLossy: return "loss10";
  }
  return "?";
}

std::string cell_name(
    const ::testing::TestParamInfo<std::tuple<int, Fabric, unsigned>>& param) {
  return std::to_string(std::get<0>(param.param)) + "hosts_" +
         fabric_name(std::get<1>(param.param)) + "_seed" +
         std::to_string(std::get<2>(param.param));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ExchangeEquivalenceSweep,
    ::testing::Combine(::testing::Values(3, 17, 64),
                       ::testing::Values(Fabric::kClean, Fabric::kCrashRecover,
                                         Fabric::kDupReorder, Fabric::kLossy),
                       ::testing::Values(1u, 7919u)),
    cell_name);

// A fleet: over 200 candidates compete for each of the 63 selected slots.
INSTANTIATE_TEST_SUITE_P(
    Fleet, ExchangeEquivalenceSweep,
    ::testing::Combine(::testing::Values(256),
                       ::testing::Values(Fabric::kClean, Fabric::kCrashRecover),
                       ::testing::Values(1u)),
    cell_name);

INSTANTIATE_TEST_SUITE_P(
    Caps, ExchangeCapSweep,
    ::testing::Combine(::testing::Values(17),
                       ::testing::Values(std::size_t{1}, std::size_t{24}),
                       ::testing::Values(Fabric::kClean, Fabric::kCrashRecover,
                                         Fabric::kDupReorder, Fabric::kLossy),
                       ::testing::Values(1u)),
    [](const auto& param) {
      return std::to_string(std::get<0>(param.param)) + "hosts_cap" +
             std::to_string(std::get<1>(param.param)) + "_" +
             fabric_name(std::get<2>(param.param)) + "_seed" +
             std::to_string(std::get<3>(param.param));
    });

}  // namespace
}  // namespace cpe
