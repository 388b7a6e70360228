// Causal span tracing: the narrative layer above metrics.
//
// MetricsRegistry (§9) answers "how long did freezes take"; the SpanTracer
// answers "which freeze, caused by which scheduler decision, followed by
// which flush".  A SpanRecord is one named interval (or instant) on one
// host's timeline, linked to a parent span and a 64-bit trace id; a
// TraceContext carries {trace id, parent span} across task/host boundaries —
// inside pvm::Message it occupies kTraceContextWireBytes of the envelope and
// is charged to the wire like any other header byte (DESIGN.md §10).
//
// Each host also carries a Lamport clock, advanced on every message send and
// receive; spans snapshot the clock at begin/end so cross-host ordering can
// be audited causally instead of by virtual-time coincidence.
//
// Like the metrics layer, the tracer is engine-passive: it reads virtual
// time but never schedules events, so tracing cannot perturb a run.  The
// span store is a capped ring: long runs record millions of spans, and an
// unbounded store would dominate memory.  When the cap is reached the oldest
// spans are discarded and dropped() counts them, so an exporter reports the
// truncation instead of silently losing history.
//
// Consumers: write_chrome_trace() emits Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing (one pid per host, one tid per task/ULP
// track); obs::write_span (flight.hpp) writes one span as the JSON object a
// flight dump embeds; obs::TraceAuditor (audit.hpp) replays the spans and
// checks protocol invariants.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace cpe::sim {
class Engine;
}  // namespace cpe::sim

namespace cpe::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Causality carried across task and host boundaries.  Id 0 means "not
/// traced": untraced messages pay no wire overhead.
///
/// User-provided constructors (not an aggregate): TraceContext travels by
/// value into coroutine frames, where GCC 12 miscompiles aggregate params.
struct TraceContext {
  TraceId trace_id = 0;
  SpanId parent_span = 0;

  TraceContext() noexcept {}
  TraceContext(TraceId trace, SpanId parent) noexcept
      : trace_id(trace), parent_span(parent) {}

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
  [[nodiscard]] bool operator==(const TraceContext&) const = default;
};

/// Wire footprint of a valid TraceContext in the PVM message envelope:
/// 8 B trace id + 8 B parent span id + 8 B Lamport stamp.  Charged on top of
/// PvmCosts::msg_header_bytes, only when the message is traced.
inline constexpr std::size_t kTraceContextWireBytes = 24;

enum class SpanStatus {
  kOpen,     ///< begun, not yet ended (an exported open span is a bug)
  kOk,       ///< completed successfully
  kAborted,  ///< protocol gave up (rollback/recovery must follow — audited)
  kFenced,   ///< rejected by a stale fencing epoch before doing any work
};

[[nodiscard]] const char* to_string(SpanStatus s) noexcept;

struct SpanRecord {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span = 0;  ///< 0 = root of its trace
  std::string name;        ///< e.g. "mpvm.migrate", "mpvm.flush", "gs.vacate"
  std::string host;        ///< Chrome pid; "" groups under a synthetic host
  std::int64_t track = 0;  ///< Chrome tid: task/ULP id, 0 = host control
  sim::Time start = 0;
  sim::Time end = 0;
  std::uint64_t lamport_start = 0;
  std::uint64_t lamport_end = 0;
  SpanStatus status = SpanStatus::kOpen;
  bool instant = false;  ///< zero-duration event ("i" phase in Chrome)
  std::vector<std::pair<std::string, std::string>> attrs;

  /// First value recorded for `key`; nullptr when absent.
  [[nodiscard]] const std::string* attr(std::string_view key) const;
  [[nodiscard]] sim::Time duration() const noexcept { return end - start; }
};

/// Mints trace/span ids, records spans, and keeps the per-host Lamport
/// clocks.  Ids are deterministic counters: two identical runs produce
/// byte-identical traces, like every other export in the simulator.
class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit SpanTracer(const sim::Engine& eng) : eng_(&eng) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Mint a fresh trace.  The returned context has no parent span: pass it
  /// to begin_span() to create the root.
  [[nodiscard]] TraceContext start_trace() { return {next_trace_id_++, 0}; }

  /// Open a span.  An invalid context mints a fresh trace, so call sites
  /// need not special-case "nobody above me is tracing".
  SpanId begin_span(const TraceContext& ctx, std::string_view name,
                    std::string_view host, std::int64_t track = 0);

  /// Attach a key=value attribute (no-op if the span left the ring).
  void annotate(SpanId span, std::string_view key, std::string_view value);

  /// Close a span, snapshotting time and the host's Lamport clock.
  void end_span(SpanId span, SpanStatus status = SpanStatus::kOk);

  /// Record an instant event (already closed, zero duration).
  SpanId event(const TraceContext& ctx, std::string_view name,
               std::string_view host, std::int64_t track = 0);

  /// Context that makes `span` the parent of whatever is begun with it.
  [[nodiscard]] TraceContext context_of(SpanId span) const;

  // Lamport clocks (one per host name).  on_send ticks and returns the
  // stamp to put on the wire; on_receive merges the sender's stamp.
  std::uint64_t on_send(std::string_view host);
  void on_receive(std::string_view host, std::uint64_t stamp);
  [[nodiscard]] std::uint64_t clock(std::string_view host) const;

  [[nodiscard]] const std::deque<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const SpanRecord* find(SpanId span) const;
  [[nodiscard]] const SpanRecord* find_named(std::string_view name) const;
  [[nodiscard]] std::vector<const SpanRecord*> by_trace(TraceId trace) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Ring capacity control.  Shrinking below the current size drops the
  /// oldest spans immediately (and counts them); requests below 2, including
  /// 0, are clamped to 2.
  void set_capacity(std::size_t cap);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  void clear();

 private:
  [[nodiscard]] SpanRecord* find_mut(SpanId span);
  void push(SpanRecord rec);

  const sim::Engine* eng_;
  /// Every span is pushed as its id is minted and the ring drops only from
  /// the front, so the ids held are consecutive: a span sits at
  /// `id - spans_.front().span_id`.
  std::deque<SpanRecord> spans_;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t dropped_ = 0;
  TraceId next_trace_id_ = 1;
  SpanId next_span_id_ = 1;
  std::map<std::string, std::uint64_t, std::less<>> lamport_;
};

/// Chrome trace-event JSON (the {"traceEvents":[...]} flavour): one pid per
/// host, one tid per track, "X" complete events for spans, "i" instants for
/// events, "M" metadata naming processes and threads.  Timestamps are
/// virtual seconds scaled to microseconds.  Load the file in Perfetto or
/// chrome://tracing (README "visualize a migration").
void write_chrome_trace(const SpanTracer& tracer, std::ostream& os);

/// Same, over an explicit span set — for benches that collect (and re-base)
/// spans across several independent testbeds before exporting one file.
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& os);

}  // namespace cpe::obs
