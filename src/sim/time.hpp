// Simulated-time definitions for the discrete-event engine.
#pragma once

#include <limits>

namespace cpe::sim {

/// Simulated time, in seconds.  Double precision gives sub-nanosecond
/// resolution over the minute-scale horizons used by the experiments.
using Time = double;

/// A time later than any event the simulator will ever schedule.
inline constexpr Time kForever = std::numeric_limits<Time>::infinity();

}  // namespace cpe::sim
