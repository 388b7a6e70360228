#include "obs/flight.hpp"

#include <cstdio>
#include <fstream>

#include "obs/analytics.hpp"
#include "obs/span.hpp"
#include "sim/assert.hpp"
#include "sim/engine.hpp"

namespace cpe::obs {

namespace {

/// Newest spans and violations embedded per dump.
constexpr std::size_t kSpanTail = 4096;
constexpr std::size_t kViolationTail = 64;

void write_window(std::ostream& os, const Window& w) {
  os << "{\"t\":" << json_num(w.t) << ",\"dt\":" << json_num(w.dt)
     << ",\"count\":" << w.count << ",\"rate\":" << json_num(w.rate)
     << ",\"sum\":" << json_num(w.sum) << ",\"min\":" << json_num(w.min)
     << ",\"max\":" << json_num(w.max) << ",\"value\":" << json_num(w.value)
     << ",\"p50\":" << json_num(w.p50) << ",\"p95\":" << json_num(w.p95)
     << ",\"p99\":" << json_num(w.p99) << ",\"ewma\":" << json_num(w.ewma)
     << "}";
}

void write_violation(std::ostream& os, const SloViolation& v) {
  os << "{\"rule\":\""
     << json_escape(v.rule != nullptr ? v.rule->name : std::string())
     << "\",\"t\":" << json_num(v.t)
     << ",\"observed\":" << json_num(v.observed)
     << ",\"threshold\":" << json_num(v.threshold)
     << ",\"streak\":" << v.streak << ",\"window\":" << v.window << "}";
}

}  // namespace

void write_span(std::ostream& os, const SpanRecord& s) {
  os << "{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
     << ",\"parent\":" << s.parent_span << ",\"name\":\""
     << json_escape(s.name) << "\",\"host\":\"" << json_escape(s.host)
     << "\",\"track\":" << s.track << ",\"start\":" << json_num(s.start)
     << ",\"end\":" << json_num(s.end)
     << ",\"lamport_start\":" << s.lamport_start
     << ",\"lamport_end\":" << s.lamport_end << ",\"status\":\""
     << to_string(s.status) << "\"";
  if (s.instant) os << ",\"instant\":true";
  if (!s.attrs.empty()) {
    os << ",\"attrs\":{";
    bool first = true;
    for (const auto& [k, v] : s.attrs) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    os << "}";
  }
  os << "}";
}

FlightRecorder::FlightRecorder(Analytics& analytics, const SpanTracer* spans,
                               FlightOptions opt)
    : analytics_(&analytics), spans_(spans), opt_(std::move(opt)) {
  CPE_EXPECTS(opt_.max_dumps >= 1);
  hook_id_ = analytics_->on_violation(
      [this](const SloViolation& v) { dump("slo", &v); });
}

FlightRecorder::~FlightRecorder() {
  analytics_->remove_violation_hook(hook_id_);
}

bool FlightRecorder::trigger(std::string_view reason) {
  return dump(reason, nullptr);
}

bool FlightRecorder::dump(std::string_view reason, const SloViolation* v) {
  const sim::Time now = analytics_->engine().now();
  if (dumps_ >= opt_.max_dumps ||
      (dumped_once_ && now - last_dump_ < opt_.cooldown)) {
    ++suppressed_;
    return false;
  }

  char tbuf[32];
  std::snprintf(tbuf, sizeof tbuf, "%.9g", now);
  std::string name = opt_.prefix + "_" + tbuf;
  // Two dumps at one instant (two rules firing in one window) must not
  // clobber each other: suffix with the dump ordinal.
  if (dumped_once_ && now == last_dump_)
    name += "_" + std::to_string(dumps_ + 1);
  const std::string path = opt_.dir + "/" + name + ".json";

  std::ofstream os(path);
  if (!os) return false;

  os << "{\n  \"flight\": 1,\n  \"t\": " << json_num(now)
     << ",\n  \"reason\": \"" << json_escape(reason)
     << "\",\n  \"window_s\": " << json_num(analytics_->options().window)
     << ",\n  \"windows_sampled\": " << analytics_->windows()
     << ",\n  \"violation\": ";
  if (v != nullptr)
    write_violation(os, *v);
  else
    os << "null";

  os << ",\n  \"rules\": [";
  for (std::size_t i = 0; i < analytics_->rule_count(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escape(analytics_->rule_at(i).text()) << "\"";
  }
  os << "\n  ],\n  \"violations\": [";
  {
    const auto& all = analytics_->violations();
    const std::size_t from =
        all.size() > kViolationTail ? all.size() - kViolationTail : 0;
    for (std::size_t i = from; i < all.size(); ++i) {
      os << (i == from ? "\n    " : ",\n    ");
      write_violation(os, all[i]);
    }
  }

  os << "\n  ],\n  \"series\": [";
  for (std::size_t i = 0; i < analytics_->series_count(); ++i) {
    const TimeSeries& ts = analytics_->series_at(i);
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(ts.name()) << "\", \"kind\": \""
       << to_string(ts.kind()) << "\", \"windows_total\": " << ts.total()
       << ", \"windows\": [";
    for (std::size_t j = 0; j < ts.size(); ++j) {
      os << (j == 0 ? "" : ",");
      write_window(os, ts.window(j));
    }
    os << "]}";
  }

  os << "\n  ],\n  \"spans\": [";
  std::uint64_t truncated = 0;
  if (spans_ != nullptr) {
    const auto& ring = spans_->spans();
    const std::size_t from =
        ring.size() > kSpanTail ? ring.size() - kSpanTail : 0;
    truncated = from;
    for (std::size_t i = from; i < ring.size(); ++i) {
      os << (i == from ? "\n    " : ",\n    ");
      write_span(os, ring[i]);
    }
  }
  os << "\n  ],\n  \"spans_dropped\": "
     << (spans_ != nullptr ? spans_->dropped() : 0)
     << ",\n  \"spans_truncated\": " << truncated << "\n}\n";
  os.close();

  ++dumps_;
  dumped_once_ = true;
  last_dump_ = now;
  files_.push_back(path);
  return true;
}

}  // namespace cpe::obs
