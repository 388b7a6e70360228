// Trace-driven protocol auditing.
//
// A finished run's spans are a record of what the migration protocols
// actually did; the TraceAuditor replays them and checks the invariants the
// paper's protocols promise (DESIGN.md §10 lists them with rationale):
//
//   1. stage-completeness — every *completed* migration span contains each
//      of its protocol stages exactly once (MPVM: freeze/flush/transfer/
//      restart; UPVM: capture/flush/offload/accept), correctly parented,
//      and in causal order (virtual time, plus Lamport order between
//      consecutive same-host stages).
//   2. flush-completeness — no message is delivered into the migrated
//      task's mailbox on the *source* host after its restart span closes
//      (paper §2.1 stage 2: the flush must have drained everything).
//   3. epoch-monotonicity — fencing epochs recorded along a trace never
//      decrease (a deposed scheduler's commands cannot interleave).
//   4. abort-handling — every *aborted* migration span has a matching
//      rollback child, a checkpoint recovery in its trace, or is explicitly
//      marked lost (destination died after the point of no return).
//   5. no-dangling — no protocol span is still open when the run ends.
//   6. decision-linkage — every load.decide span closes Ok under a gs.*
//      span, so the trace shows which scheduler action a decision fed.
//   7. precopy-completeness — every mpvm.precopy.chunk span closes (Ok, or
//      Aborted on mid-stream abort/fallback) and sits directly under its
//      mpvm.precopy stage.
//   8. residual-linkage — every mpvm.residual.forward event lands inside
//      the mpvm.migrate span whose restart armed the forwarding skeleton.
//   9. request-completeness — the service layer's request-span category
//      (svc.request roots, svc.serve legs): every traced request resolves
//      exactly once — its root closes Ok or Aborted with a recorded reason
//      (timeout/rejected), never dangles; every serve leg is parented under
//      a svc.request, and may outlive the run only when its client already
//      timed out (open-loop truncation, not a lost span).
//
// The auditor reads a SpanTracer's records in place, or owns a plain vector
// of SpanRecords (synthesized by tests — the deliberately-broken fixtures in
// tests/obs/audit_test.cpp keep the checks honest).  Benches and
// `ci/check.sh audit` fail the build when audit() is non-empty.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace cpe::obs {

struct AuditViolation {
  TraceId trace_id = 0;
  std::string invariant;  ///< e.g. "stage-completeness"
  std::string detail;
};

class TraceAuditor {
 public:
  /// Audits the tracer's ring without copying it: the tracer must outlive
  /// the auditor, and audit() sees the ring as it is when called.
  explicit TraceAuditor(const SpanTracer& tracer);
  explicit TraceAuditor(std::vector<SpanRecord> spans);

  /// Run every invariant; empty means the run audits clean.
  [[nodiscard]] std::vector<AuditViolation> audit() const;
  [[nodiscard]] bool ok() const { return audit().empty(); }

  /// Render violations as "trace=N [invariant] detail" lines for humans.
  [[nodiscard]] static std::string format(
      const std::vector<AuditViolation>& violations);

 private:
  const std::deque<SpanRecord>* ring_ = nullptr;  ///< a tracer's, or else
  std::vector<SpanRecord> owned_;                 ///< records handed over
};

}  // namespace cpe::obs
