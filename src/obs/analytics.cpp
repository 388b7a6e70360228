#include "obs/analytics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/assert.hpp"
#include "sim/engine.hpp"

namespace cpe::obs {

// ---------------------------------------------------------------------------
// Enum names

const char* to_string(SeriesKind k) noexcept {
  switch (k) {
    case SeriesKind::kCounter: return "counter";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kHistogram: return "histogram";
  }
  return "?";
}

const char* to_string(SloAgg a) noexcept {
  switch (a) {
    case SloAgg::kRate: return "rate";
    case SloAgg::kValue: return "value";
    case SloAgg::kEwma: return "ewma";
    case SloAgg::kCount: return "count";
    case SloAgg::kMin: return "min";
    case SloAgg::kMax: return "max";
    case SloAgg::kSum: return "sum";
    case SloAgg::kP50: return "p50";
    case SloAgg::kP95: return "p95";
    case SloAgg::kP99: return "p99";
  }
  return "?";
}

const char* to_string(SloCmp c) noexcept {
  switch (c) {
    case SloCmp::kLt: return "<";
    case SloCmp::kLe: return "<=";
    case SloCmp::kGt: return ">";
    case SloCmp::kGe: return ">=";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TimeSeries

TimeSeries::TimeSeries(std::string name, SeriesKind kind,
                       std::size_t capacity)
    : name_(std::move(name)), kind_(kind) {
  CPE_EXPECTS(capacity >= 1);
  ring_.resize(capacity);
}

const Window& TimeSeries::window(std::size_t i) const {
  CPE_EXPECTS(i < size_);
  // head_ points one past the newest; the oldest retained window sits
  // size_ slots behind the head.
  const std::size_t cap = ring_.size();
  return ring_[(head_ + cap - size_ + i) % cap];
}

const Window* TimeSeries::latest() const noexcept {
  if (size_ == 0) return nullptr;
  const std::size_t cap = ring_.size();
  return &ring_[(head_ + cap - 1) % cap];
}

void TimeSeries::push(const Window& w) noexcept {
  ring_[head_] = w;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

// ---------------------------------------------------------------------------
// SloRule grammar

namespace {

std::string_view strip(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool parse_agg(std::string_view word, SloAgg& out) {
  for (const SloAgg a :
       {SloAgg::kRate, SloAgg::kValue, SloAgg::kEwma, SloAgg::kCount,
        SloAgg::kMin, SloAgg::kMax, SloAgg::kSum, SloAgg::kP50, SloAgg::kP95,
        SloAgg::kP99}) {
    if (word == to_string(a)) {
      out = a;
      return true;
    }
  }
  if (word == "mean") {  // alias: a histogram window's value IS its mean
    out = SloAgg::kValue;
    return true;
  }
  return false;
}

}  // namespace

SloRule SloRule::parse(std::string_view text) {
  SloRule r;
  std::string_view s = strip(text);

  const std::size_t open = s.find('(');
  CPE_EXPECTS(open != std::string_view::npos);  // "agg(series) cmp x"
  CPE_EXPECTS(parse_agg(strip(s.substr(0, open)), r.agg));
  s.remove_prefix(open + 1);

  const std::size_t close = s.find(')');
  CPE_EXPECTS(close != std::string_view::npos);
  r.series = std::string(strip(s.substr(0, close)));
  CPE_EXPECTS(!r.series.empty());
  s = strip(s.substr(close + 1));

  if (s.starts_with("<=")) {
    r.cmp = SloCmp::kLe;
    s.remove_prefix(2);
  } else if (s.starts_with(">=")) {
    r.cmp = SloCmp::kGe;
    s.remove_prefix(2);
  } else if (s.starts_with("<")) {
    r.cmp = SloCmp::kLt;
    s.remove_prefix(1);
  } else if (s.starts_with(">")) {
    r.cmp = SloCmp::kGt;
    s.remove_prefix(1);
  } else {
    CPE_EXPECTS(false && "SloRule: expected <, <=, > or >=");
  }
  s = strip(s);

  char* end = nullptr;
  const std::string num(s);  // strtod needs NUL termination
  r.threshold = std::strtod(num.c_str(), &end);
  CPE_EXPECTS(end != num.c_str());
  CPE_EXPECTS(std::isfinite(r.threshold));
  s = strip(s.substr(static_cast<std::size_t>(end - num.c_str())));

  if (!s.empty()) {
    CPE_EXPECTS(s.starts_with("for"));
    s = strip(s.substr(3));
    const std::string n(s);
    char* nend = nullptr;
    const long windows = std::strtol(n.c_str(), &nend, 10);
    CPE_EXPECTS(nend != n.c_str() && *nend == '\0');
    CPE_EXPECTS(windows >= 1);
    r.for_windows = static_cast<int>(windows);
  }

  r.name = r.text();
  return r;
}

std::string SloRule::text() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", threshold);
  std::string out;
  out += to_string(agg);
  out += '(';
  out += series;
  out += ") ";
  out += to_string(cmp);
  out += ' ';
  out += buf;
  if (for_windows > 1) {
    std::snprintf(buf, sizeof buf, " for %d", for_windows);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Analytics

Analytics::Analytics(sim::Engine& eng, MetricsRegistry& reg,
                     AnalyticsOptions opt)
    : eng_(&eng), reg_(&reg), opt_(opt), last_sample_(eng.now()) {
  CPE_EXPECTS(opt_.window > 0);
  CPE_EXPECTS(opt_.ring_windows >= 1);
  CPE_EXPECTS(opt_.ewma_alpha > 0 && opt_.ewma_alpha <= 1.0);
  violations_total_ = &reg_->counter("analytics.slo.violations");
}

Analytics::~Analytics() { stop(); }

Analytics::Tracked* Analytics::find_tracked(std::string_view name) noexcept {
  for (Tracked& t : tracked_)
    if (t.series.name() == name) return &t;
  return nullptr;
}

TimeSeries& Analytics::track_counter(std::string_view name) {
  if (Tracked* t = find_tracked(name)) {
    CPE_EXPECTS(t->series.kind() == SeriesKind::kCounter);
    return t->series;
  }
  Tracked& t = tracked_.emplace_back(std::string(name), SeriesKind::kCounter,
                                     opt_.ring_windows);
  t.counter = &reg_->counter(name);
  t.prev_count = t.counter->value();
  return t.series;
}

TimeSeries& Analytics::track_gauge(std::string_view name) {
  if (Tracked* t = find_tracked(name)) {
    CPE_EXPECTS(t->series.kind() == SeriesKind::kGauge);
    return t->series;
  }
  Tracked& t = tracked_.emplace_back(std::string(name), SeriesKind::kGauge,
                                     opt_.ring_windows);
  t.gauge = &reg_->gauge(name);
  return t.series;
}

TimeSeries& Analytics::track_histogram(std::string_view name) {
  if (Tracked* t = find_tracked(name)) {
    CPE_EXPECTS(t->series.kind() == SeriesKind::kHistogram);
    return t->series;
  }
  Tracked& t = tracked_.emplace_back(std::string(name),
                                     SeriesKind::kHistogram,
                                     opt_.ring_windows);
  t.hist = &reg_->histogram(name);
  t.prev_count = t.hist->count();
  t.prev_sum = t.hist->sum();
  t.prev_buckets.assign(Histogram::kBuckets, 0);
  t.window_buckets.assign(Histogram::kBuckets, 0);
  for (int i = 0; i < Histogram::kBuckets; ++i)
    t.prev_buckets[static_cast<std::size_t>(i)] = t.hist->bucket_count(i);
  return t.series;
}

const TimeSeries* Analytics::find(std::string_view name) const {
  for (const Tracked& t : tracked_)
    if (t.series.name() == name) return &t.series;
  return nullptr;
}

const TimeSeries& Analytics::series_at(std::size_t i) const {
  CPE_EXPECTS(i < tracked_.size());
  return tracked_[i].series;
}

const SloRule& Analytics::add_rule(SloRule rule) {
  if (rule.name.empty()) rule.name = rule.text();
  // Auto-track the series, inferring the instrument kind from the aggregate
  // (and from what the registry already holds, for the ambiguous ones).
  const TimeSeries* series = nullptr;
  if (const Tracked* t = find_tracked(rule.series)) {
    series = &t->series;
  } else {
    switch (rule.agg) {
      case SloAgg::kP50:
      case SloAgg::kP95:
      case SloAgg::kP99:
        series = &track_histogram(rule.series);
        break;
      case SloAgg::kRate:
      case SloAgg::kCount:
        series = reg_->find_histogram(rule.series) != nullptr
                     ? &track_histogram(rule.series)
                     : &track_counter(rule.series);
        break;
      default:
        if (reg_->find_histogram(rule.series) != nullptr)
          series = &track_histogram(rule.series);
        else if (reg_->find_counter(rule.series) != nullptr)
          series = &track_counter(rule.series);
        else
          series = &track_gauge(rule.series);
        break;
    }
  }
  // Percentile aggregates only exist on histogram windows.
  if (rule.agg == SloAgg::kP50 || rule.agg == SloAgg::kP95 ||
      rule.agg == SloAgg::kP99) {
    CPE_EXPECTS(series->kind() == SeriesKind::kHistogram);
  }

  RuleState& rs = rules_.emplace_back();
  rs.rule = std::move(rule);
  rs.series = series;
  rs.fired = &reg_->counter("analytics.slo.rule." + rs.rule.name);
  return rs.rule;
}

const SloRule& Analytics::rule_at(std::size_t i) const {
  CPE_EXPECTS(i < rules_.size());
  return rules_[i].rule;
}

std::size_t Analytics::on_violation(
    std::function<void(const SloViolation&)> hook) {
  hooks_.push_back(std::move(hook));
  return hooks_.size() - 1;
}

void Analytics::remove_violation_hook(std::size_t id) noexcept {
  if (id < hooks_.size()) hooks_[id] = nullptr;
}

void Analytics::start(sim::Time horizon) {
  if (running_) return;
  running_ = true;
  last_sample_ = eng_->now();
  timer_ = eng_->schedule_in(opt_.window, [this, horizon] { tick(horizon); });
}

void Analytics::stop() noexcept {
  running_ = false;
  eng_->cancel(timer_);
  timer_ = sim::EventId{};
}

void Analytics::tick(sim::Time horizon) {
  if (!running_) return;
  sample_now();
  if (eng_->now() + opt_.window > horizon) {
    running_ = false;
    timer_ = sim::EventId{};
    return;
  }
  timer_ = eng_->schedule_in(opt_.window, [this, horizon] { tick(horizon); });
}

void Analytics::sample_now() {
  const sim::Time now = eng_->now();
  const sim::Time dt = now - last_sample_;
  last_sample_ = now;
  for (Tracked& t : tracked_) roll(t, now, dt);
  ++windows_;
  evaluate(now);
}

void Analytics::roll(Tracked& t, sim::Time now, sim::Time dt) noexcept {
  Window w;
  w.t = now;
  w.dt = dt;
  const Window* prev = t.series.latest();
  const double prev_ewma = prev != nullptr ? prev->ewma : 0.0;
  const bool first = prev == nullptr;

  switch (t.series.kind()) {
    case SeriesKind::kCounter: {
      const std::uint64_t cur = t.counter->value();
      const std::uint64_t delta = cur - t.prev_count;
      t.prev_count = cur;
      w.count = delta;
      w.rate = dt > 0 ? static_cast<double>(delta) / dt : 0.0;
      w.sum = static_cast<double>(delta);
      w.min = w.max = w.value = w.rate;
      w.ewma = first ? w.value
                     : opt_.ewma_alpha * w.value +
                           (1.0 - opt_.ewma_alpha) * prev_ewma;
      break;
    }
    case SeriesKind::kGauge: {
      const double v = t.gauge->value();
      w.count = t.gauge->observed() ? 1 : 0;
      w.value = w.sum = w.min = w.max = v;
      w.ewma = first ? v
                     : opt_.ewma_alpha * v +
                           (1.0 - opt_.ewma_alpha) * prev_ewma;
      break;
    }
    case SeriesKind::kHistogram: {
      const Histogram& h = *t.hist;
      const std::uint64_t cur = h.count();
      const std::uint64_t delta = cur - t.prev_count;
      const double dsum = h.sum() - t.prev_sum;
      t.prev_count = cur;
      t.prev_sum = h.sum();
      w.count = delta;
      w.rate = dt > 0 ? static_cast<double>(delta) / dt : 0.0;
      w.sum = dsum;
      w.value = delta > 0 ? dsum / static_cast<double>(delta) : 0.0;
      if (delta > 0) {
        // This window's samples are the bucket counts minus the last
        // window's copy; both scratch arrays are preallocated.
        bool saw_min = false;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const std::uint64_t d = h.bucket_count(i) - t.prev_buckets[idx];
          t.prev_buckets[idx] = h.bucket_count(i);
          t.window_buckets[idx] = d;
          if (d == 0) continue;
          if (!saw_min) {
            w.min = i == 0 ? 0.0 : Histogram::bucket_bound(i - 1);
            saw_min = true;
          }
          w.max = std::min(Histogram::bucket_bound(i), h.max());
        }
        w.p50 = h.quantile(t.window_buckets, delta, 0.50);
        w.p95 = h.quantile(t.window_buckets, delta, 0.95);
        w.p99 = h.quantile(t.window_buckets, delta, 0.99);
        w.ewma = first ? w.value
                       : opt_.ewma_alpha * w.value +
                             (1.0 - opt_.ewma_alpha) * prev_ewma;
      } else {
        // Idle window: bucket counts are unchanged, so the snapshot in
        // prev_buckets is already current; quantiles stay 0 and the EWMA
        // holds its last value rather than decaying toward a fake 0.
        w.ewma = prev_ewma;
      }
      break;
    }
  }
  t.series.push(w);
}

namespace {

double agg_of(const Window& w, SloAgg agg) noexcept {
  switch (agg) {
    case SloAgg::kRate: return w.rate;
    case SloAgg::kValue: return w.value;
    case SloAgg::kEwma: return w.ewma;
    case SloAgg::kCount: return static_cast<double>(w.count);
    case SloAgg::kMin: return w.min;
    case SloAgg::kMax: return w.max;
    case SloAgg::kSum: return w.sum;
    case SloAgg::kP50: return w.p50;
    case SloAgg::kP95: return w.p95;
    case SloAgg::kP99: return w.p99;
  }
  return 0.0;
}

bool holds(double observed, SloCmp cmp, double threshold) noexcept {
  switch (cmp) {
    case SloCmp::kLt: return observed < threshold;
    case SloCmp::kLe: return observed <= threshold;
    case SloCmp::kGt: return observed > threshold;
    case SloCmp::kGe: return observed >= threshold;
  }
  return true;
}

}  // namespace

void Analytics::evaluate(sim::Time now) {
  for (RuleState& rs : rules_) {
    const Window* w = rs.series->latest();
    if (w == nullptr) continue;
    const double observed = agg_of(*w, rs.rule.agg);
    if (holds(observed, rs.rule.cmp, rs.rule.threshold)) {
      rs.streak = 0;
      continue;
    }
    ++rs.streak;
    if (rs.streak >= rs.rule.for_windows) fire(rs, observed, now);
  }
}

void Analytics::fire(RuleState& rs, double observed, sim::Time now) {
  SloViolation v;
  v.rule = &rs.rule;
  v.t = now;
  v.observed = observed;
  v.threshold = rs.rule.threshold;
  v.streak = rs.streak;
  v.window = windows_;
  violations_.push_back(v);
  violations_total_->inc();
  rs.fired->inc();
  for (auto& hook : hooks_)
    if (hook) hook(violations_.back());
}

}  // namespace cpe::obs
