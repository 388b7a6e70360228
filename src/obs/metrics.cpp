#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "sim/engine.hpp"

namespace cpe::obs {

// ---------------------------------------------------------------------------
// Histogram

int Histogram::bucket_for(double v) {
  if (v <= kFirstBound) return 0;
  // Bucket index = ceil(log_kGrowth(v / kFirstBound)), capped at overflow.
  const double idx =
      std::ceil(std::log(v / kFirstBound) / std::log(kGrowth) - 1e-12);
  if (idx >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
  return std::max(0, static_cast<int>(idx));
}

void Histogram::record(double v) {
  if (!std::isfinite(v)) {
    ++bad_samples_;
    return;
  }
  if (v < 0.0) v = 0.0;
  ++counts_[static_cast<std::size_t>(bucket_for(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double Histogram::bucket_bound(int i) {
  CPE_EXPECTS(i >= 0 && i < kBuckets);
  if (i == kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kFirstBound * std::pow(kGrowth, static_cast<double>(i));
}

double Histogram::quantile(double q) const {
  CPE_EXPECTS(q >= 0.0 && q <= 1.0);
  return count_ == 0 ? 0.0 : quantile(counts_, count_, q);
}

double Histogram::quantile(std::span<const std::uint64_t> counts,
                           std::uint64_t n, double q) const {
  CPE_EXPECTS(q >= 0.0 && q <= 1.0);
  CPE_EXPECTS(counts.size() == counts_.size() && n > 0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= target && cum > 0) {
      // Clamp to the observed range so q=1 returns max, not a bucket edge.
      return std::min(bucket_bound(static_cast<int>(i)), max_);
    }
  }
  return max_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::collect() {
  for (auto& fn : collectors_) fn(*this);
  std::uint64_t bad = 0;
  for (const auto& [name, g] : gauges_) bad += g->bad_samples();
  for (const auto& [name, h] : histograms_) bad += h->bad_samples();
  if (bad > bad_samples_exported_) {
    counter("obs.bad_samples").inc(bad - bad_samples_exported_);
    bad_samples_exported_ = bad;
  }
}

std::uint64_t MetricsSnapshot::value(std::string_view name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t MetricsSnapshot::delta(const MetricsSnapshot& earlier,
                                     std::string_view name) const {
  const std::uint64_t now = value(name);
  const std::uint64_t then = earlier.value(name);
  CPE_EXPECTS(now >= then);  // counters are monotonic
  return now - then;
}

MetricsSnapshot MetricsRegistry::snapshot() {
  collect();
  MetricsSnapshot snap;
  snap.t = eng_ != nullptr ? eng_->now() : 0.0;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c->value());
  return snap;
}

void MetricsRegistry::write_jsonl(std::ostream& os) {
  collect();
  const std::string t = json_num(eng_ != nullptr ? eng_->now() : 0.0);
  for (const auto& [name, c] : counters_) {
    os << "{\"t\":" << t << ",\"type\":\"counter\",\"name\":\""
       << json_escape(name) << "\",\"value\":" << c->value() << "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "{\"t\":" << t << ",\"type\":\"gauge\",\"name\":\""
       << json_escape(name) << "\",\"value\":" << json_num(g->value())
       << ",\"max\":" << json_num(g->max()) << "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "{\"t\":" << t << ",\"type\":\"histogram\",\"name\":\""
       << json_escape(name) << "\",\"count\":" << h->count()
       << ",\"sum\":" << json_num(h->sum())
       << ",\"min\":" << json_num(h->min())
       << ",\"max\":" << json_num(h->max())
       << ",\"mean\":" << json_num(h->mean())
       << ",\"p50\":" << json_num(h->quantile(0.50))
       << ",\"p90\":" << json_num(h->quantile(0.90))
       << ",\"p99\":" << json_num(h->quantile(0.99)) << ",\"buckets\":[";
    bool first = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n == 0) continue;  // sparse export: empty buckets stay implicit
      if (!first) os << ',';
      first = false;
      const double le = h->bucket_bound(i);
      os << "{\"le\":";
      if (std::isfinite(le))
        os << json_num(le);
      else
        os << "null";
      os << ",\"n\":" << n << "}";
    }
    os << "]}\n";
  }
}

// ---------------------------------------------------------------------------
// StageTimer

StageTimer::StageTimer(const sim::Engine& eng, Histogram& hist)
    : eng_(&eng), hist_(&hist), start_(eng.now()) {}

StageTimer::~StageTimer() {
  if (!done_) commit();
}

sim::Time StageTimer::elapsed() const { return eng_->now() - start_; }

sim::Time StageTimer::commit() {
  const sim::Time dt = elapsed();
  if (!done_) {
    hist_->record(dt);
    done_ = true;
  }
  return dt;
}

// ---------------------------------------------------------------------------
// JSON text

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace cpe::obs
