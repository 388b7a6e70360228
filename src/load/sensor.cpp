#include "load/sensor.hpp"

#include <cmath>

namespace cpe::load {

LoadSensor::LoadSensor(os::Host& host, obs::MetricsRegistry& metrics,
                       SensorPolicy policy)
    : host_(&host), policy_(policy) {
  CPE_EXPECTS(policy.sample_interval > 0);
  CPE_EXPECTS(policy.time_constant > 0);
  gauge_ = &metrics.gauge("load.index." + host.name());
  // Event-driven samples: the CPU tells us the moment the runnable set
  // changes, so the index tracks arrivals/departures between polls.
  host.cpu().set_load_observer([this](double v) { ingest(v); });
  sample();
}

LoadSensor::~LoadSensor() {
  host_->cpu().set_load_observer(nullptr);
}

void LoadSensor::ingest(double v) {
  if (!std::isfinite(v)) {
    // Count the poisoned sample through the Gauge's NaN accounting and
    // keep the last good index.
    gauge_->set(v);
    return;
  }
  const sim::Time now = host_->engine().now();
  if (!seen_) {
    index_ = v;
    seen_ = true;
  } else {
    const double w = std::exp(-(now - last_) / policy_.time_constant);
    index_ = w * index_ + (1.0 - w) * v;
  }
  instant_ = v;
  last_ = now;
  ++samples_;
  gauge_->set(index_);
}

void LoadSensor::sample() { ingest(host_->cpu().load()); }

LoadSample LoadSensor::reading() const {
  const int external = host_->cpu().external_jobs();
  return LoadSample{index_, instant_, external, external > 0, host_->up()};
}

LoadEntry LoadSensor::entry() const {
  return LoadEntry(host_->name(), reading(), last_);
}

void LoadSensor::start(sim::Time until) {
  auto loop = [](LoadSensor* self, sim::Time horizon) -> sim::Co<void> {
    sim::Engine& eng = self->host_->engine();
    while (eng.now() < horizon) {
      co_await sim::Delay(eng, self->policy_.sample_interval);
      // A frozen/crashed host's sensor reports nothing: its entry ages out
      // of every peer's map instead of advertising a stale zero load.
      if (self->host_->up() && !self->host_->frozen()) self->sample();
    }
  };
  poll_ = sim::launch(host_->engine(), loop(this, until));
}

}  // namespace cpe::load
