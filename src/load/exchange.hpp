// MOSIX-style load dissemination (DESIGN.md §11.2).
//
// Each host runs one gossip agent: every kGossipInterval it refreshes its
// own sensor entry, then sends its `vector_cap` freshest entries (itself
// always first) to kGossipFanout random live peers over *unreliable*
// datagrams — a lost gossip round costs nothing but staleness, so the
// exchange never blocks on a dead peer the way the reliable pvmd transport
// would.  Receivers merge by origin stamp: newer wins, and a host's own
// sensor is always authoritative for its own entry.  The result at every
// host is an eventually-consistent partial load map whose entries carry
// their age; the PlacementEngine discounts or drops entries older than its
// staleness bound rather than trusting them.
//
// Hosts are indexed densely (id = the daemon's position in the VM), so an
// agent's map is a flat array of samples plus an array of stamps, one
// payload carrying ids instead of names serves every peer, and lookups by
// host are O(1).  Each agent keeps its freshest `vector_cap - 1`
// entries ordered as receive() merges them and ages the rest lazily, so a
// round costs O(vector_cap), not O(hosts).  Names only order things:
// selection ties and view() follow name order, as a name-keyed map would.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "load/sensor.hpp"
#include "pvm/system.hpp"
#include "sim/random.hpp"

namespace cpe::load {

/// Seconds between an agent's gossip rounds.
inline constexpr sim::Time kGossipInterval = 1.0;
/// Random live peers each round's datagram goes to.
inline constexpr std::size_t kGossipFanout = 2;

struct ExchangePolicy {
  std::size_t vector_cap = 16;  ///< freshest entries per gossip datagram
  /// Entries older than 3x this are garbage-collected from the maps
  /// (placement applies its own, usually equal, bound when reading).
  sim::Time staleness_bound = 5.0;
  SensorPolicy sensor;
  std::uint64_t seed = 0x10adf00d;
};

class LoadExchange {
 public:
  LoadExchange(pvm::PvmSystem& vm, ExchangePolicy policy = {});
  LoadExchange(const LoadExchange&) = delete;
  LoadExchange& operator=(const LoadExchange&) = delete;
  /// Unbinds every agent's port (the VM outlives the exchange in tests).
  ~LoadExchange();

  [[nodiscard]] pvm::PvmSystem& vm() const noexcept { return *vm_; }
  [[nodiscard]] const ExchangePolicy& policy() const noexcept {
    return policy_;
  }

  /// Start every sensor poll and gossip loop until `until`.
  void start(sim::Time until);

  /// The sensor running on `host`; nullptr when the host is not in the VM.
  [[nodiscard]] LoadSensor* sensor_on(const os::Host& host) const;

  /// Snapshot of the load map held *at* `at` (name-sorted, own entry
  /// refreshed from the local sensor).  This is what a scheduler hosted on
  /// `at` can actually know without central polling.
  [[nodiscard]] std::vector<LoadEntry> view(const os::Host& at) const;

  /// `about`'s slot in `at`'s map: its sample and origin stamp, `host`
  /// being `about`'s id.  nullopt when `at` never heard of `about`, the
  /// entry aged out, or either host is not in the VM.
  [[nodiscard]] std::optional<LoadGossip::Entry> entry_at(
      const os::Host& at, const os::Host& about) const;

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t entries_merged() const noexcept {
    return merged_;
  }
  [[nodiscard]] std::uint64_t stale_dropped() const noexcept {
    return stale_dropped_;
  }

 private:
  struct Agent {
    os::Host* host = nullptr;
    std::uint32_t id = 0;  ///< this host's dense index
    std::unique_ptr<LoadSensor> sensor;
    /// The map, by origin host id: the freshest known sample and its
    /// origin stamp (kAbsent when never heard of).  A slot other than our
    /// own whose stamp is older than the horizon at `last_round` has aged
    /// out and reads as absent; nothing overwrites it.
    std::vector<LoadSample> samples;
    std::vector<sim::Time> stamps;
    /// Up to `vector_cap - 1` host ids other than our own, freshest first
    /// (newest stamp, ties in name order).  Every slot outside it is older
    /// than every slot in it, or has aged out (DESIGN.md §11.2).
    std::vector<std::uint32_t> top;
    /// When this agent last ran a round; ageing is judged against it.
    sim::Time last_round;
    sim::Rng rng;
    std::uint64_t observer = 0;  ///< the host observer marking live_ stale

    Agent(os::Host* host_, std::uint32_t id_,
          std::unique_ptr<LoadSensor> sensor_, std::size_t hosts,
          sim::Rng rng_);
  };

  [[nodiscard]] const Agent* agent_of(const os::Host& host) const;
  /// True when `a` knows an entry for `x` that has not aged out.
  [[nodiscard]] bool holds(const Agent& a, std::uint32_t x) const;
  /// `a` is fresher than `b` in `agent`'s map: newer stamp, then name.
  [[nodiscard]] bool fresher(const Agent& agent, std::uint32_t a,
                             std::uint32_t b) const;
  /// Re-place `x` in `agent.top` after its stamp rose.
  void promote(Agent& agent, std::uint32_t x);
  /// Ids of the hosts that are up, ascending.
  [[nodiscard]] const std::vector<std::uint32_t>& live_hosts();
  void receive(Agent& agent, const LoadGossip& gossip);
  void gossip_round(Agent& agent);
  [[nodiscard]] sim::Co<void> run_agent(Agent* agent, sim::Time until);

  pvm::PvmSystem* vm_;
  ExchangePolicy policy_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Agent>> agents_;  ///< by host id
  std::unordered_map<const os::Host*, std::uint32_t> id_of_host_;
  std::vector<std::uint32_t> by_name_;    ///< host ids in name order
  std::vector<std::uint32_t> name_rank_;  ///< host id -> position in by_name_
  /// Rebuilt after a host crashes or recovers (a host observer sets
  /// live_stale_), so a round never reads every host's state.
  std::vector<std::uint32_t> live_;
  bool live_stale_ = true;
  /// Per-round scratch, reused so a round allocates only its payload.
  std::vector<std::pair<std::size_t, std::uint32_t>> moved_;
  std::vector<sim::ProcHandle> loops_;
  obs::Counter* sent_ctr_ = nullptr;
  obs::Counter* merged_ctr_ = nullptr;
  std::uint64_t rounds_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t stale_dropped_ = 0;
};

}  // namespace cpe::load
