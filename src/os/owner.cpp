#include "os/owner.hpp"

namespace cpe::os {

void ScriptedOwner::start() {
  for (const OwnerEvent& ev : script_) {
    CPE_EXPECTS(ev.host != nullptr);
    eng_.schedule_at(ev.t, [this, ev] { apply(ev); });
  }
}

void ScriptedOwner::apply(const OwnerEvent& ev) {
  switch (ev.action) {
    case OwnerAction::kArrive:
    case OwnerAction::kReclaim:
      ev.host->cpu().set_external_jobs(ev.host->cpu().external_jobs() +
                                       ev.jobs);
      break;
    case OwnerAction::kDepart: {
      const int remaining = ev.host->cpu().external_jobs() - ev.jobs;
      ev.host->cpu().set_external_jobs(remaining > 0 ? remaining : 0);
      break;
    }
  }
  if (observer_) observer_(ev);
}

void StochasticOwner::start(sim::Time until) {
  for (Host* h : hosts_) sim::spawn(eng_, host_loop(h, until, rng_.split()));
}

sim::Co<void> StochasticOwner::host_loop(Host* host, sim::Time until,
                                         sim::Rng rng) {
  while (eng_.now() < until) {
    co_await sim::Delay(eng_, rng.exponential(params_.mean_idle));
    if (eng_.now() >= until) break;

    const bool reclaim = rng.chance(params_.reclaim_probability);
    OwnerEvent arrive(eng_.now(), *host,
                      reclaim ? OwnerAction::kReclaim : OwnerAction::kArrive,
                      params_.jobs);
    host->cpu().set_external_jobs(host->cpu().external_jobs() + params_.jobs);
    if (observer_) observer_(arrive);

    co_await sim::Delay(eng_, rng.exponential(params_.mean_busy));

    OwnerEvent depart(eng_.now(), *host, OwnerAction::kDepart, params_.jobs);
    const int remaining = host->cpu().external_jobs() - params_.jobs;
    host->cpu().set_external_jobs(remaining > 0 ? remaining : 0);
    if (observer_) observer_(depart);
  }
}

}  // namespace cpe::os
