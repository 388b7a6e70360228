// Workstation-owner activity: the external load and reclamation events that
// drive adaptive migration (paper §1: owners "expect high-quality performance"
// and parallel jobs must be unobtrusive).
//
// Two generators:
//  * ScriptedOwner — a deterministic (time, host, action) schedule; used by
//    the benches so every table is exactly reproducible.
//  * StochasticOwner — per-host alternating idle/busy periods with
//    exponentially distributed durations; used by the scheduler-policy
//    ablation.
//
// Both apply external jobs to the host's CPU (slowing co-located tasks) and
// notify an observer (normally the Global Scheduler).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "os/host.hpp"
#include "sim/random.hpp"

namespace cpe::os {

enum class OwnerAction : std::uint8_t {
  kArrive,   ///< owner starts working: external jobs appear
  kDepart,   ///< owner leaves: machine is idle again
  kReclaim,  ///< owner demands the machine: parallel work must vacate
};

[[nodiscard]] constexpr const char* to_string(OwnerAction a) {
  switch (a) {
    case OwnerAction::kArrive: return "arrive";
    case OwnerAction::kDepart: return "depart";
    case OwnerAction::kReclaim: return "reclaim";
  }
  return "?";
}

struct OwnerEvent {
  sim::Time t = 0;
  Host* host = nullptr;
  OwnerAction action = OwnerAction::kArrive;
  int jobs = 1;  ///< external jobs while the owner is active

  OwnerEvent() = default;
  OwnerEvent(sim::Time t_, Host& host_, OwnerAction action_, int jobs_ = 1)
      : t(t_), host(&host_), action(action_), jobs(jobs_) {}
};

/// Observer signature: invoked at the moment of each owner event, after the
/// CPU load has been applied.
using OwnerObserver = std::function<void(const OwnerEvent&)>;

/// Deterministic owner schedule.
class ScriptedOwner {
 public:
  ScriptedOwner(sim::Engine& eng, std::vector<OwnerEvent> script)
      : eng_(eng), script_(std::move(script)) {}

  void set_observer(OwnerObserver obs) { observer_ = std::move(obs); }

  /// Schedule every scripted event.  Call once, before Engine::run.
  void start();

 private:
  void apply(const OwnerEvent& ev);

  sim::Engine& eng_;
  std::vector<OwnerEvent> script_;
  OwnerObserver observer_;
};

/// Per-host renewal process: idle for Exp(mean_idle), then busy with `jobs`
/// external jobs for Exp(mean_busy), repeating.  A busy period is a kArrive /
/// kDepart pair; with `reclaim_probability` the arrival is a kReclaim
/// instead (the owner wants the whole machine).
class StochasticOwner {
 public:
  struct Params {
    sim::Time mean_idle = 120.0;
    sim::Time mean_busy = 60.0;
    int jobs = 1;
    double reclaim_probability = 0.0;
  };

  StochasticOwner(sim::Engine& eng, std::vector<Host*> hosts, Params params,
                  sim::Rng rng)
      : eng_(eng), hosts_(std::move(hosts)), params_(params), rng_(rng) {}

  void set_observer(OwnerObserver obs) { observer_ = std::move(obs); }

  /// Run the generators until `until` (virtual time).
  void start(sim::Time until);

 private:
  [[nodiscard]] sim::Co<void> host_loop(Host* host, sim::Time until,
                                        sim::Rng rng);

  sim::Engine& eng_;
  std::vector<Host*> hosts_;
  Params params_;
  sim::Rng rng_;
  OwnerObserver observer_;
};

}  // namespace cpe::os
