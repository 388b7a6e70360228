// Flight recorder: post-mortem state capture on SLO violation or fault.
//
// When an armed SloRule fires (or a FaultPlan trigger / operator asks), the
// recorder freezes the evidence: every tracked TimeSeries ring (the last N
// windows of rollups), the violation timeline, the rule set, and the tail
// of the span ring — into ONE self-contained `flight_<t>.json`.  The file
// needs nothing else from the run to be read: an offline consumer can
// re-plot the series, re-check the rule arithmetic, and re-derive each
// migration's critical path from the embedded spans (ci/check.sh's `slo`
// mode does exactly that as its replay proof).
//
// Dump policy mirrors real flight recorders: max_dumps caps how many files
// one run can emit (the first breach is the interesting one; a sustained
// breach would otherwise dump every window), and cooldown enforces a
// minimum virtual-time gap between dumps.  Suppressed triggers are counted.
//
// The recorder arms itself by installing an Analytics violation hook at
// construction and removes it on destruction — keep the recorder alive for
// as long as the sampler runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace cpe::obs {

class Analytics;
class SpanTracer;
struct SloViolation;
struct SpanRecord;

struct FlightOptions {
  std::string dir = ".";         ///< output directory (no trailing slash)
  std::string prefix = "flight"; ///< files are <prefix>_<t>.json
  std::size_t max_dumps = 1;
  sim::Time cooldown = 0;        ///< min virtual time between dumps
};

/// One span as a JSON object: ids, name, host, track, start/end (json_num),
/// Lamport stamps, status, instant flag and attributes.  Every entry of a
/// dump's "spans" array has this shape; it is the machine-readable form of
/// a span.
void write_span(std::ostream& os, const SpanRecord& s);

class FlightRecorder {
 public:
  /// `spans` may be null (series-only dumps).
  FlightRecorder(Analytics& analytics, const SpanTracer* spans,
                 FlightOptions opt = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Manual / FaultPlan-driven dump (subject to the same caps).  Returns
  /// true when a file was written.
  bool trigger(std::string_view reason);

  [[nodiscard]] std::uint64_t dumps() const noexcept { return dumps_; }
  /// Triggers swallowed by max_dumps / cooldown.
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return suppressed_;
  }
  [[nodiscard]] const std::vector<std::string>& files() const noexcept {
    return files_;
  }

 private:
  bool dump(std::string_view reason, const SloViolation* v);

  Analytics* analytics_;
  const SpanTracer* spans_;
  FlightOptions opt_;
  std::size_t hook_id_ = 0;
  std::uint64_t dumps_ = 0;
  std::uint64_t suppressed_ = 0;
  sim::Time last_dump_ = 0;
  bool dumped_once_ = false;
  std::vector<std::string> files_;
};

}  // namespace cpe::obs
