#include "load/exchange.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <numeric>

namespace cpe::load {
namespace {

/// The stamp of a map slot that holds nothing.
constexpr sim::Time kAbsent = -std::numeric_limits<sim::Time>::infinity();

}  // namespace

LoadExchange::Agent::Agent(os::Host* host_, std::uint32_t id_,
                           std::unique_ptr<LoadSensor> sensor_,
                           std::size_t hosts, sim::Rng rng_)
    : host(host_),
      id(id_),
      sensor(std::move(sensor_)),
      samples(hosts),
      stamps(hosts, kAbsent),
      rng(rng_) {}

LoadExchange::LoadExchange(pvm::PvmSystem& vm, ExchangePolicy policy)
    : vm_(&vm), policy_(policy), rng_(policy.seed) {
  CPE_EXPECTS(policy.gossip_interval > 0);
  CPE_EXPECTS(policy.fanout > 0);
  CPE_EXPECTS(policy.vector_cap > 0);
  CPE_EXPECTS(policy.staleness_bound > 0);
  sent_ctr_ = &vm.metrics().counter("load.gossip.sent");
  merged_ctr_ = &vm.metrics().counter("load.gossip.merged");

  // Index every host before binding anything: entries travel as ids, and
  // a name may stand for one host only.
  const std::size_t n = vm.daemons().size();
  for (std::uint32_t id = 0; id < n; ++id) {
    const os::Host& h = vm.daemons()[id]->host();
    const bool unique_host_name = id_of_name_.emplace(h.name(), id).second;
    CPE_EXPECTS(unique_host_name);
    id_of_host_.emplace(&h, id);
  }
  by_name_.resize(n);
  std::iota(by_name_.begin(), by_name_.end(), 0u);
  std::sort(by_name_.begin(), by_name_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return vm.daemons()[a]->host().name() <
                     vm.daemons()[b]->host().name();
            });
  name_rank_.resize(n);
  for (std::uint32_t r = 0; r < n; ++r) name_rank_[by_name_[r]] = r;

  net::DatagramService& dg = vm.network().datagrams();
  for (std::uint32_t id = 0; id < n; ++id) {
    os::Host& h = vm.daemons()[id]->host();
    agents_.push_back(std::make_unique<Agent>(
        &h, id, std::make_unique<LoadSensor>(h, vm.metrics(), policy.sensor),
        n, rng_.split()));
    Agent* agent = agents_.back().get();
    dg.bind(h.node(), kLoadPort, [this, agent](net::Datagram d_in) {
      const auto* gossip =
          std::any_cast<std::shared_ptr<const LoadGossip>>(&d_in.payload);
      if (gossip != nullptr && *gossip != nullptr) receive(*agent, **gossip);
    });
    agent->observer = h.add_observer([this](os::Host&, os::HostEvent ev) {
      if (ev == os::HostEvent::kCrash || ev == os::HostEvent::kRecover)
        live_stale_ = true;
    });
  }
}

LoadExchange::~LoadExchange() {
  net::DatagramService& dg = vm_->network().datagrams();
  for (const auto& a : agents_) {
    dg.unbind(a->host->node(), kLoadPort);
    a->host->remove_observer(a->observer);
  }
}

const LoadExchange::Agent* LoadExchange::agent_of(const os::Host& host) const {
  const auto it = id_of_host_.find(&host);
  return it == id_of_host_.end() ? nullptr : agents_[it->second].get();
}

const std::vector<std::uint32_t>& LoadExchange::live_hosts() {
  if (live_stale_) {
    live_.clear();
    for (const auto& a : agents_)
      if (a->host->up()) live_.push_back(a->id);
    live_stale_ = false;
  }
  return live_;
}

LoadSensor* LoadExchange::sensor_on(const os::Host& host) const {
  const Agent* a = agent_of(host);
  return a == nullptr ? nullptr : a->sensor.get();
}

std::vector<LoadEntry> LoadExchange::view(const os::Host& at) const {
  std::vector<LoadEntry> out;
  const Agent* a = agent_of(at);
  if (a == nullptr) return out;
  out.reserve(by_name_.size());
  for (const std::uint32_t x : by_name_) {
    if (x == a->id) {
      out.push_back(a->sensor->entry());  // own view is always live
    } else if (a->stamps[x] != kAbsent) {
      out.emplace_back(agents_[x]->host->name(), a->samples[x], a->stamps[x]);
    }
  }
  return out;
}

const LoadEntry* LoadExchange::entry_at(const os::Host& at,
                                        const std::string& about) const {
  const Agent* a = agent_of(at);
  if (a == nullptr) return nullptr;
  const auto it = id_of_name_.find(about);
  if (it == id_of_name_.end()) return nullptr;
  const std::uint32_t x = it->second;
  if (a->stamps[x] == kAbsent) return nullptr;
  if (a->named.empty()) a->named.resize(agents_.size());
  a->named[x] =
      LoadEntry(agents_[x]->host->name(), a->samples[x], a->stamps[x]);
  return &a->named[x];
}

void LoadExchange::receive(Agent& agent, const LoadGossip& gossip) {
  const sim::Time now = vm_->engine().now();
  const sim::Time horizon = 3.0 * policy_.staleness_bound;
  for (const LoadGossip::Entry& e : gossip.entries) {
    // A host's own sensor is authoritative for its own entry.
    if (e.host == agent.id) continue;
    if (now - e.stamp > horizon) {
      ++stale_dropped_;
      continue;
    }
    sim::Time& stamp = agent.stamps[e.host];
    if (stamp >= e.stamp) continue;  // we know something newer
    stamp = e.stamp;
    agent.samples[e.host] = e.sample;
    ++merged_;
    merged_ctr_->inc();
  }
}

void LoadExchange::gossip_round(Agent& agent) {
  const sim::Time now = vm_->engine().now();
  ++rounds_;

  // Refresh our own entry.  Then one pass over the stamps ages out what
  // nobody has refreshed in a long time (a crashed host's last words should
  // not circulate forever) and keeps the freshest `vector_cap - 1` of the
  // rest in `fresh_`: newest stamp first, ties in name order.
  const std::uint32_t self = agent.id;
  agent.samples[self] = agent.sensor->reading();
  agent.stamps[self] = agent.sensor->last_sample();
  const auto fresher = [&](std::uint32_t a, std::uint32_t b) {
    const sim::Time sa = agent.stamps[a];
    const sim::Time sb = agent.stamps[b];
    return sa != sb ? sa > sb : name_rank_[a] < name_rank_[b];
  };
  const sim::Time horizon = 3.0 * policy_.staleness_bound;
  const std::size_t keep = policy_.vector_cap - 1;
  fresh_.clear();
  for (std::uint32_t x = 0; x < agent.stamps.size(); ++x) {
    if (x == self) continue;
    sim::Time& stamp = agent.stamps[x];
    if (now - stamp > horizon) {
      stamp = kAbsent;  // never heard of, or aged out
      continue;
    }
    if (fresh_.size() == keep) {
      if (keep == 0 || !fresher(x, fresh_.back())) continue;
      fresh_.pop_back();
    }
    fresh_.insert(std::upper_bound(fresh_.begin(), fresh_.end(), x, fresher),
                  x);
  }

  // The gossip vector: our own entry first, then `fresh_` in order.
  auto gossip = std::make_shared<LoadGossip>();
  gossip->entries.reserve(fresh_.size() + 1);
  gossip->entries.push_back({self, agent.stamps[self], agent.samples[self]});
  for (const std::uint32_t x : fresh_)
    gossip->entries.push_back({x, agent.stamps[x], agent.samples[x]});
  // Receivers any_cast to exactly this type, so convert before wrapping.
  const std::shared_ptr<const LoadGossip> payload = std::move(gossip);

  // Pick `fanout` distinct random live peers: the first `fanout` steps of
  // a Fisher-Yates shuffle of the live hosts other than this one, in id
  // order.  The list is read off live_ around our own slot; moved_ holds
  // only the slots the shuffle has swapped.
  const std::vector<std::uint32_t>& live = live_hosts();
  const auto mine = static_cast<std::size_t>(
      std::lower_bound(live.begin(), live.end(), self) - live.begin());
  CPE_ASSERT(mine < live.size() && live[mine] == self);
  const std::size_t peers = live.size() - 1;
  const auto peer_in = [&](std::size_t slot) {
    for (auto it = moved_.rbegin(); it != moved_.rend(); ++it)
      if (it->first == slot) return it->second;
    return live[slot < mine ? slot : slot + 1];
  };
  moved_.clear();
  const std::size_t sends =
      std::min(static_cast<std::size_t>(policy_.fanout), peers);
  for (std::size_t i = 0; i < sends; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(agent.rng.below(peers - i));
    const Agent* peer = agents_[peer_in(j)].get();
    moved_.emplace_back(j, peer_in(i));  // slot i is never read again

    // Every peer gets the same payload, charged kGossipHeaderBytes.
    net::Datagram d(agent.host->node(), peer->host->node(), kLoadPort,
                    kGossipHeaderBytes, payload);
    sent_ctr_->inc();
    auto sender = [](net::DatagramService* dg,
                     net::Datagram dgram) -> sim::Co<void> {
      try {
        co_await dg->send_unreliable(std::move(dgram));
      } catch (const net::DeliveryError&) {
        // Local NIC detached mid-round (host crashed): the round is moot.
      }
    };
    sim::spawn(vm_->engine(),
               sender(&vm_->network().datagrams(), std::move(d)));
  }
}

sim::Co<void> LoadExchange::run_agent(Agent* agent, sim::Time until) {
  sim::Engine& eng = vm_->engine();
  // Desynchronize the rounds so 64 hosts don't all transmit on the same
  // instant of every simulated second.
  co_await sim::Delay(eng, agent->rng.uniform() * policy_.gossip_interval);
  while (eng.now() < until) {
    if (agent->host->up() && !agent->host->frozen()) gossip_round(*agent);
    co_await sim::Delay(eng, policy_.gossip_interval);
  }
}

void LoadExchange::start(sim::Time until) {
  for (const auto& a : agents_) {
    a->sensor->start(until);
    loops_.push_back(sim::launch(vm_->engine(), run_agent(a.get(), until)));
  }
}

}  // namespace cpe::load
