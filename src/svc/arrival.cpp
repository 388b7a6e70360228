#include "svc/arrival.hpp"

#include <cmath>
#include <numbers>

namespace cpe::svc {

double DiurnalArrivals::rate_at(sim::Time t) const noexcept {
  return base_ *
         (1.0 + amplitude_ * std::sin(2.0 * std::numbers::pi * t / period_));
}

sim::Time DiurnalArrivals::next_gap(sim::Time now) {
  // Lewis-Shedler thinning: draw candidates from a homogeneous Poisson
  // process at the peak rate, accept each with probability rate(t)/peak.
  // The candidate at virtual time `t` below is relative to `now`.
  const double peak = base_ * (1.0 + amplitude_);
  sim::Time t = 0;
  for (;;) {
    t += rng_.exponential(1.0 / peak);
    if (rng_.uniform() * peak <= rate_at(now + t)) return t;
  }
}

}  // namespace cpe::svc
