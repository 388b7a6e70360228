// Per-host load sensor: the smoothed "how busy is this workstation" index
// every placement policy consumes (DESIGN.md §11.1).
//
// The raw signal is os::CpuScheduler::load() — runnable application jobs
// plus owner (external) jobs, the same quantity the legacy threshold poll
// read.  The sensor folds it into an exponentially-smoothed index with
// *age-aware* decay: samples arrive both on a fixed poll and event-driven
// (the CPU's load observer fires on every runnable-set change), so the
// smoothing weight is derived from the gap since the previous sample,
//
//   w     = exp(-(t_now - t_last) / time_constant)
//   index = w * index + (1 - w) * sample
//
// which makes the index independent of sampling cadence: a burst of
// event-driven samples in one instant moves it no further than one poll
// would.  Non-finite samples are dropped (and counted by the Gauge), so a
// poisoned sample can never propagate into gossip or placement.
#pragma once

#include <string>

#include "load/load.hpp"
#include "obs/metrics.hpp"
#include "os/host.hpp"

namespace cpe::load {

struct SensorPolicy {
  sim::Time time_constant = 5.0;  ///< EWMA tau (seconds of memory)
};

class LoadSensor {
 public:
  LoadSensor(os::Host& host, obs::MetricsRegistry& metrics,
             SensorPolicy policy = {});
  LoadSensor(const LoadSensor&) = delete;
  LoadSensor& operator=(const LoadSensor&) = delete;
  /// Unhooks the CPU load observer: the host outlives the sensor in tests.
  ~LoadSensor();

  [[nodiscard]] os::Host& host() const noexcept { return *host_; }
  [[nodiscard]] const SensorPolicy& policy() const noexcept { return policy_; }

  /// Smoothed load index (0 until the first sample).
  [[nodiscard]] double index() const noexcept { return index_; }
  /// Most recent raw sample (runnable jobs incl. owner jobs).
  [[nodiscard]] double instant() const noexcept { return instant_; }
  [[nodiscard]] sim::Time last_sample() const noexcept { return last_; }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

  /// Take a sample right now (polling loop and tests call this; the CPU
  /// observer drives it on every runnable-set change).
  void sample();

  /// The sensor's current state, stamped last_sample().
  [[nodiscard]] LoadSample reading() const;
  /// reading() as a named entry.
  [[nodiscard]] LoadEntry entry() const;

  /// Start the periodic poll until `until` (virtual time).
  void start(sim::Time until);

 private:
  void ingest(double v);

  os::Host* host_;
  SensorPolicy policy_;
  obs::Gauge* gauge_;  ///< "load.index.<host>" in the VM registry
  double index_ = 0;
  double instant_ = 0;
  sim::Time last_ = 0;
  bool seen_ = false;
  std::uint64_t samples_ = 0;
  sim::ProcHandle poll_;
};

}  // namespace cpe::load
