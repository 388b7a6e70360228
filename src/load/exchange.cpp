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
      last_round(kAbsent),
      rng(rng_) {}

LoadExchange::LoadExchange(pvm::PvmSystem& vm, ExchangePolicy policy)
    : vm_(&vm), policy_(policy), rng_(policy.seed) {
  CPE_EXPECTS(policy.vector_cap > 0);
  CPE_EXPECTS(policy.staleness_bound > 0);
  sent_ctr_ = &vm.metrics().counter("load.gossip.sent");
  merged_ctr_ = &vm.metrics().counter("load.gossip.merged");

  // Index every host before binding anything: entries travel as ids, and
  // since names break ties, a name may stand for one host only.
  const std::size_t n = vm.daemons().size();
  const auto name = [&](std::uint32_t id) -> const std::string& {
    return vm.daemons()[id]->host().name();
  };
  for (std::uint32_t id = 0; id < n; ++id)
    id_of_host_.emplace(&vm.daemons()[id]->host(), id);
  by_name_.resize(n);
  std::iota(by_name_.begin(), by_name_.end(), 0u);
  std::sort(by_name_.begin(), by_name_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return name(a) < name(b); });
  for (std::uint32_t r = 1; r < n; ++r) {
    const bool unique_host_name = name(by_name_[r - 1]) != name(by_name_[r]);
    CPE_EXPECTS(unique_host_name);
  }
  name_rank_.resize(n);
  for (std::uint32_t r = 0; r < n; ++r) name_rank_[by_name_[r]] = r;

  net::DatagramService& dg = vm.network().datagrams();
  for (std::uint32_t id = 0; id < n; ++id) {
    os::Host& h = vm.daemons()[id]->host();
    agents_.push_back(std::make_unique<Agent>(
        &h, id, std::make_unique<LoadSensor>(h, vm.metrics(), policy.sensor),
        n, rng_.split()));
    Agent* agent = agents_.back().get();
    agent->top.reserve(std::min(policy.vector_cap - 1, n));
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

bool LoadExchange::holds(const Agent& a, std::uint32_t x) const {
  const sim::Time stamp = a.stamps[x];
  if (stamp == kAbsent) return false;
  // The expression a round used to age slots out, at the agent's last
  // round; its own slot never ages.
  return x == a.id || !(a.last_round - stamp > 3.0 * policy_.staleness_bound);
}

bool LoadExchange::fresher(const Agent& agent, std::uint32_t a,
                           std::uint32_t b) const {
  const sim::Time sa = agent.stamps[a];
  const sim::Time sb = agent.stamps[b];
  return sa != sb ? sa > sb : name_rank_[a] < name_rank_[b];
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
    } else if (holds(*a, x)) {
      out.emplace_back(agents_[x]->host->name(), a->samples[x], a->stamps[x]);
    }
  }
  return out;
}

std::optional<LoadGossip::Entry> LoadExchange::entry_at(
    const os::Host& at, const os::Host& about) const {
  const Agent* a = agent_of(at);
  const Agent* b = agent_of(about);
  if (a == nullptr || b == nullptr || !holds(*a, b->id)) return std::nullopt;
  return LoadGossip::Entry{b->id, a->stamps[b->id], a->samples[b->id]};
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
    // An aged-out slot still holds its old stamp, but any entry that passed
    // the horizon check is newer than it (DESIGN.md §11.2).
    stamp = e.stamp;
    agent.samples[e.host] = e.sample;
    promote(agent, e.host);
    ++merged_;
    merged_ctr_->inc();
  }
}

void LoadExchange::promote(Agent& agent, std::uint32_t x) {
  std::vector<std::uint32_t>& top = agent.top;
  const std::size_t keep = policy_.vector_cap - 1;
  const auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    return fresher(agent, a, b);
  };
  // With every slot taken, a newcomer that does not beat the last one stays
  // out.  A member other than the last was fresher than it already, and a
  // rising stamp keeps it so.
  if (top.size() == keep &&
      (keep == 0 || (x != top.back() && !cmp(x, top.back()))))
    return;
  if (const auto at = std::find(top.begin(), top.end(), x); at != top.end())
    top.erase(at);
  else if (top.size() == keep)
    top.pop_back();
  top.insert(std::upper_bound(top.begin(), top.end(), x, cmp), x);
}

void LoadExchange::gossip_round(Agent& agent) {
  const sim::Time now = vm_->engine().now();
  ++rounds_;

  // Refresh our own entry, then age out what nobody has refreshed in a long
  // time (a crashed host's last words should not circulate forever).  The
  // freshest `vector_cap - 1` others are already in `top`, freshest first,
  // so the aged ones among them sit at its tail.  A slot outside `top` is
  // not touched: from now on holds() reads it as absent if it has aged.
  const std::uint32_t self = agent.id;
  agent.samples[self] = agent.sensor->reading();
  agent.stamps[self] = agent.sensor->last_sample();
  agent.last_round = now;
  const sim::Time horizon = 3.0 * policy_.staleness_bound;
  std::vector<std::uint32_t>& top = agent.top;
  while (!top.empty() && now - agent.stamps[top.back()] > horizon)
    top.pop_back();

  // The gossip vector: our own entry first, then `top` in order.
  auto gossip = std::make_shared<LoadGossip>();
  gossip->entries.reserve(top.size() + 1);
  gossip->entries.push_back({self, agent.stamps[self], agent.samples[self]});
  for (const std::uint32_t x : top)
    gossip->entries.push_back({x, agent.stamps[x], agent.samples[x]});
  // Receivers any_cast to exactly this type, so convert before wrapping.
  const std::shared_ptr<const LoadGossip> payload = std::move(gossip);

  // Pick kGossipFanout distinct random live peers: the first kGossipFanout
  // steps of a Fisher-Yates shuffle of the live hosts other than this one,
  // in id order.  The list is read off live_ around our own slot; moved_
  // holds only the slots the shuffle has swapped.
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
  const std::size_t sends = std::min(kGossipFanout, peers);
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
  co_await sim::Delay(eng, agent->rng.uniform() * kGossipInterval);
  while (eng.now() < until) {
    if (agent->host->up() && !agent->host->frozen()) gossip_round(*agent);
    co_await sim::Delay(eng, kGossipInterval);
  }
}

void LoadExchange::start(sim::Time until) {
  for (const auto& a : agents_) {
    a->sensor->start(until);
    loops_.push_back(sim::launch(vm_->engine(), run_agent(a.get(), until)));
  }
}

}  // namespace cpe::load
