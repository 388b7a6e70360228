#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"
#include "sim/assert.hpp"
#include "sim/engine.hpp"

namespace cpe::obs {

namespace {

std::string chrome_num(double v) {
  if (!std::isfinite(v) || v < 0.0) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

const char* to_string(SpanStatus s) noexcept {
  switch (s) {
    case SpanStatus::kOpen: return "open";
    case SpanStatus::kOk: return "ok";
    case SpanStatus::kAborted: return "aborted";
    case SpanStatus::kFenced: return "fenced";
  }
  return "?";
}

const std::string* SpanRecord::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs)
    if (k == key) return &v;
  return nullptr;
}

// ---------------------------------------------------------------------------
// SpanTracer

void SpanTracer::push(SpanRecord rec) {
  while (spans_.size() >= capacity_) {
    spans_.pop_front();
    ++dropped_;
  }
  spans_.push_back(std::move(rec));
}

SpanId SpanTracer::begin_span(const TraceContext& ctx, std::string_view name,
                              std::string_view host, std::int64_t track) {
  const TraceContext c = ctx.valid() ? ctx : start_trace();
  SpanRecord rec;
  rec.trace_id = c.trace_id;
  rec.span_id = next_span_id_++;
  rec.parent_span = c.parent_span;
  rec.name = std::string(name);
  rec.host = std::string(host);
  rec.track = track;
  rec.start = rec.end = eng_->now();
  rec.lamport_start = rec.lamport_end = clock(host);
  const SpanId id = rec.span_id;
  push(std::move(rec));
  return id;
}

void SpanTracer::annotate(SpanId span, std::string_view key,
                          std::string_view value) {
  if (SpanRecord* r = find_mut(span))
    r->attrs.emplace_back(std::string(key), std::string(value));
}

void SpanTracer::end_span(SpanId span, SpanStatus status) {
  SpanRecord* r = find_mut(span);
  if (r == nullptr) return;  // fell off the ring; nothing to close
  r->end = eng_->now();
  r->lamport_end = clock(r->host);
  r->status = status;
}

SpanId SpanTracer::event(const TraceContext& ctx, std::string_view name,
                         std::string_view host, std::int64_t track) {
  const SpanId id = begin_span(ctx, name, host, track);
  if (SpanRecord* r = find_mut(id)) {
    r->instant = true;
    r->status = SpanStatus::kOk;
  }
  return id;
}

TraceContext SpanTracer::context_of(SpanId span) const {
  const SpanRecord* r = find(span);
  if (r == nullptr) return {};
  return {r->trace_id, r->span_id};
}

std::uint64_t SpanTracer::on_send(std::string_view host) {
  auto it = lamport_.find(host);
  if (it == lamport_.end())
    it = lamport_.emplace(std::string(host), 0).first;
  return ++it->second;
}

void SpanTracer::on_receive(std::string_view host, std::uint64_t stamp) {
  auto it = lamport_.find(host);
  if (it == lamport_.end())
    it = lamport_.emplace(std::string(host), 0).first;
  it->second = std::max(it->second, stamp) + 1;
}

std::uint64_t SpanTracer::clock(std::string_view host) const {
  const auto it = lamport_.find(host);
  return it == lamport_.end() ? 0 : it->second;
}

SpanRecord* SpanTracer::find_mut(SpanId span) {
  return const_cast<SpanRecord*>(std::as_const(*this).find(span));
}

const SpanRecord* SpanTracer::find(SpanId span) const {
  if (spans_.empty() || span < spans_.front().span_id) return nullptr;
  const SpanId pos = span - spans_.front().span_id;
  if (pos >= spans_.size()) return nullptr;
  return &spans_[static_cast<std::size_t>(pos)];
}

const SpanRecord* SpanTracer::find_named(std::string_view name) const {
  for (const auto& r : spans_)
    if (r.name == name) return &r;
  return nullptr;
}

std::vector<const SpanRecord*> SpanTracer::by_trace(TraceId trace) const {
  std::vector<const SpanRecord*> out;
  for (const auto& r : spans_)
    if (r.trace_id == trace) out.push_back(&r);
  return out;
}

void SpanTracer::set_capacity(std::size_t cap) {
  capacity_ = std::max<std::size_t>(cap, 2);
  while (spans_.size() > capacity_) {
    spans_.pop_front();
    ++dropped_;
  }
}

void SpanTracer::clear() {
  spans_.clear();
  dropped_ = 0;
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

/// Deterministic pid assignment: hosts sorted by name, 1-based.  The empty
/// host name groups under a synthetic "(untracked)" process.
template <typename Spans>
std::map<std::string, int> assign_pids(const Spans& spans) {
  std::map<std::string, int> pids;
  for (const auto& s : spans) pids.emplace(s.host, 0);
  int next = 1;
  for (auto& [host, pid] : pids) pid = next++;
  return pids;
}

void write_args(std::ostream& os, const SpanRecord& s) {
  os << "\"args\":{\"trace_id\":" << s.trace_id
     << ",\"span_id\":" << s.span_id << ",\"parent_span\":" << s.parent_span
     << ",\"status\":\"" << to_string(s.status)
     << "\",\"lamport_start\":" << s.lamport_start
     << ",\"lamport_end\":" << s.lamport_end;
  for (const auto& [k, v] : s.attrs)
    os << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  os << "}";
}

template <typename Spans>
void chrome_trace_impl(const Spans& spans, std::ostream& os) {
  const auto pids = assign_pids(spans);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // Process metadata: one pid per host.
  for (const auto& [host, pid] : pids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\""
       << json_escape(host.empty() ? "(untracked)" : host) << "\"}}";
  }
  // Thread metadata: one tid per (host, track) seen.
  std::map<std::pair<std::string, std::int64_t>, bool> tracks;
  for (const auto& s : spans) {
    if (!tracks.emplace(std::make_pair(s.host, s.track), true).second)
      continue;
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
       << pids.at(s.host) << ",\"tid\":" << s.track << ",\"args\":{\"name\":\""
       << (s.track == 0 ? std::string("control")
                        : "task " + std::to_string(s.track))
       << "\"}}";
  }
  // The spans themselves.  Virtual seconds -> Chrome microseconds.
  for (const auto& s : spans) {
    sep();
    const int pid = pids.at(s.host);
    if (s.instant) {
      os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << json_escape(s.name)
         << "\",\"cat\":\"event\",\"pid\":" << pid << ",\"tid\":" << s.track
         << ",\"ts\":" << chrome_num(s.start * 1e6) << ",";
    } else {
      os << "{\"ph\":\"X\",\"name\":\"" << json_escape(s.name)
         << "\",\"cat\":\"span\",\"pid\":" << pid << ",\"tid\":" << s.track
         << ",\"ts\":" << chrome_num(s.start * 1e6)
         << ",\"dur\":" << chrome_num(s.duration() * 1e6) << ",";
    }
    write_args(os, s);
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace

void write_chrome_trace(const SpanTracer& tracer, std::ostream& os) {
  chrome_trace_impl(tracer.spans(), os);
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& os) {
  chrome_trace_impl(spans, os);
}

}  // namespace cpe::obs
