#include "obs/audit.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string_view>

namespace cpe::obs {

namespace {

constexpr std::string_view kMpvmStages[] = {"mpvm.freeze", "mpvm.flush",
                                            "mpvm.transfer", "mpvm.restart"};
constexpr std::string_view kUpvmStages[] = {"upvm.capture", "upvm.flush",
                                            "upvm.offload", "upvm.accept"};

bool is_protocol_span(const SpanRecord& s) {
  for (const std::string_view prefix :
       {"mpvm.", "upvm.", "adm.", "gs.", "ckpt.", "load."})
    if (s.name.rfind(prefix, 0) == 0) return true;
  return false;
}

using Records = std::vector<const SpanRecord*>;

/// `spans` stably sorted by `key` (already sorted, as a tracer's ring is by
/// span id, costs one pass).
template <class Key>
Records sorted_by(const Records& spans, Key key) {
  Records out = spans;
  const auto less = [&](const SpanRecord* a, const SpanRecord* b) {
    return key(*a) < key(*b);
  };
  if (!std::is_sorted(out.begin(), out.end(), less))
    std::stable_sort(out.begin(), out.end(), less);
  return out;
}

SpanId id_of(const SpanRecord& s) { return s.span_id; }
TraceId trace_of(const SpanRecord& s) { return s.trace_id; }

/// Span lookup by id in records sorted by id.  A duplicated id resolves to
/// its last record, as a map assignment in record order would.
const SpanRecord* find_span(const Records& by_id, SpanId id) {
  const auto it = std::upper_bound(
      by_id.begin(), by_id.end(), id,
      [](SpanId v, const SpanRecord* s) { return v < s->span_id; });
  if (it == by_id.begin() || (*(it - 1))->span_id != id) return nullptr;
  return *(it - 1);
}

/// The records of `trace`, in record order, from records grouped by trace.
std::span<const SpanRecord* const> records_of(const Records& by_trace,
                                              TraceId trace) {
  const auto lo = std::lower_bound(
      by_trace.begin(), by_trace.end(), trace,
      [](const SpanRecord* s, TraceId v) { return s->trace_id < v; });
  const auto hi = std::upper_bound(
      lo, by_trace.end(), trace,
      [](TraceId v, const SpanRecord* s) { return v < s->trace_id; });
  return {lo, hi};
}

/// True when `candidate` is a descendant of span id `root` (parent chain
/// within the same trace; bounded walk guards against cyclic corruption).
bool descends_from(const Records& by_id, const SpanRecord& candidate,
                   SpanId root) {
  SpanId cur = candidate.parent_span;
  for (int depth = 0; depth < 64 && cur != 0; ++depth) {
    if (cur == root) return true;
    const SpanRecord* parent = find_span(by_id, cur);
    if (parent == nullptr) return false;
    cur = parent->parent_span;
  }
  return false;
}

}  // namespace

TraceAuditor::TraceAuditor(const SpanTracer& tracer)
    : ring_(&tracer.spans()) {}

TraceAuditor::TraceAuditor(std::vector<SpanRecord> spans)
    : owned_(std::move(spans)) {}

std::vector<AuditViolation> TraceAuditor::audit() const {
  std::vector<AuditViolation> out;
  const auto violate = [&](TraceId trace, std::string_view invariant,
                           std::string detail) {
    out.push_back(AuditViolation{trace, std::string(invariant),
                                 std::move(detail)});
  };

  // Audit the records where they are, through pointers: flat indexes by id
  // and by trace (span ids are globally unique per run).
  Records spans;
  const auto collect = [&spans](const auto& records) {
    spans.reserve(records.size());
    for (const SpanRecord& s : records) spans.push_back(&s);
  };
  if (ring_ != nullptr)
    collect(*ring_);
  else
    collect(owned_);
  const Records by_id = sorted_by(spans, id_of);
  const Records by_trace = sorted_by(spans, trace_of);

  for (const SpanRecord* sp : spans) {
    const SpanRecord& s = *sp;
    // Invariant 5: no dangling protocol span.
    if (!s.instant && s.status == SpanStatus::kOpen && is_protocol_span(s))
      violate(s.trace_id, "no-dangling",
              s.name + " span " + std::to_string(s.span_id) +
                  " still open at end of run");

    // Invariant 6: a placement decision never floats free — every
    // "load.decide" span closes Ok and hangs under a gs.* span, so the
    // trace always shows which scheduler action a decision belongs to.
    if (s.name == "load.decide") {
      if (!s.instant && s.status != SpanStatus::kOk)
        violate(s.trace_id, "decision-linkage",
                "load.decide span " + std::to_string(s.span_id) +
                    " did not close Ok");
      const SpanRecord* parent = find_span(by_id, s.parent_span);
      if (parent == nullptr || parent->name.rfind("gs.", 0) != 0)
        violate(s.trace_id, "decision-linkage",
                "load.decide span " + std::to_string(s.span_id) +
                    " is not parented under a gs.* span");
    }

    // Invariant 7: pre-copy chunk discipline — every chunk span closes
    // (kOk, or kAborted when the migration was aborted or fell back mid
    // stream) and hangs directly under its mpvm.precopy stage span.
    if (s.name == "mpvm.precopy.chunk") {
      if (!s.instant && s.status == SpanStatus::kOpen)
        violate(s.trace_id, "precopy-completeness",
                "mpvm.precopy.chunk span " + std::to_string(s.span_id) +
                    " never closed");
      const SpanRecord* parent = find_span(by_id, s.parent_span);
      if (parent == nullptr || parent->name != "mpvm.precopy")
        violate(s.trace_id, "precopy-completeness",
                "mpvm.precopy.chunk span " + std::to_string(s.span_id) +
                    " is not parented under an mpvm.precopy span");
    }

    // Invariant 9: request completeness (service workloads).  Every traced
    // request resolves exactly once: its "svc.request" root span closes Ok
    // (completed) or Aborted with a reason attribute (timeout / rejected) —
    // never stays open, never aborts silently.  A "svc.serve" span belongs
    // to some request's trace and closes: a worker that died mid-request
    // shows up here, not as a lost span.
    if (s.name == "svc.request") {
      if (!s.instant && s.status == SpanStatus::kOpen)
        violate(s.trace_id, "request-completeness",
                "svc.request span " + std::to_string(s.span_id) +
                    " never resolved (still open at end of run)");
      if (s.status == SpanStatus::kAborted && s.attr("timeout") == nullptr &&
          s.attr("rejected") == nullptr)
        violate(s.trace_id, "request-completeness",
                "aborted svc.request span " + std::to_string(s.span_id) +
                    " carries no timeout/rejected reason");
    }
    // A parent id that is simply missing from the record set is an evicted
    // ring entry (day-long runs overflow the span ring): unprovable, skip.
    // Only a serve span that claims *no* parent, or one whose (present)
    // parent is not a request, lies.
    const SpanRecord* serve_parent =
        s.name == "svc.serve" ? find_span(by_id, s.parent_span) : nullptr;
    if (s.name == "svc.serve" &&
        (s.parent_span == 0 || serve_parent != nullptr)) {
      if (serve_parent == nullptr || serve_parent->name != "svc.request")
        violate(s.trace_id, "request-completeness",
                "svc.serve span " + std::to_string(s.span_id) +
                    " is not parented under a svc.request span");
      // An open serve leg is legal only when its client already gave up
      // (timed-out request): the open-loop frontend does not wait, but a
      // *completed* request with an unfinished serve leg is a lie.
      else if (!s.instant && s.status == SpanStatus::kOpen &&
               serve_parent->status == SpanStatus::kOk)
        violate(s.trace_id, "request-completeness",
                "svc.serve span " + std::to_string(s.span_id) +
                    " still open under a completed svc.request");
    }

    // Invariant 8: residual forwards land inside the migration whose
    // restart armed the skeleton — a forward event outside any
    // mpvm.migrate span cannot be attributed to a relocation (or fenced
    // against a superseding one).
    if (s.name == "mpvm.residual.forward") {
      bool inside = false;
      SpanId cur = s.parent_span;
      for (int depth = 0; depth < 64 && cur != 0 && !inside; ++depth) {
        const SpanRecord* parent = find_span(by_id, cur);
        if (parent == nullptr) break;
        if (parent->name == "mpvm.migrate") inside = true;
        cur = parent->parent_span;
      }
      if (!inside)
        violate(s.trace_id, "residual-linkage",
                "mpvm.residual.forward event " + std::to_string(s.span_id) +
                    " is not inside an mpvm.migrate span");
    }

    const bool mpvm_mig = s.name == "mpvm.migrate";
    const bool upvm_mig = s.name == "upvm.migrate";
    if (!mpvm_mig && !upvm_mig) continue;
    const std::span<const SpanRecord* const> trace =
        records_of(by_trace, s.trace_id);

    if (s.status == SpanStatus::kOk) {
      // Invariant 1: every stage exactly once, parented under this
      // migration, in causal order.
      const auto* stages = mpvm_mig ? kMpvmStages : kUpvmStages;
      const SpanRecord* prev = nullptr;
      for (int i = 0; i < 4; ++i) {
        const std::string_view stage = stages[i];
        const SpanRecord* found = nullptr;
        int n = 0;
        for (const SpanRecord* t : trace) {
          if (t->name != stage || !descends_from(by_id, *t, s.span_id))
            continue;
          ++n;
          found = t;
        }
        if (n != 1) {
          violate(s.trace_id, "stage-completeness",
                  "completed " + s.name + " span " +
                      std::to_string(s.span_id) + " has " +
                      std::to_string(n) + " " + std::string(stage) +
                      " stages (want exactly 1)");
          continue;
        }
        if (prev != nullptr) {
          if (found->start < prev->start)
            violate(s.trace_id, "stage-completeness",
                    std::string(stage) + " starts before " + prev->name +
                        " in migration span " + std::to_string(s.span_id));
          if (found->host == prev->host &&
              found->lamport_start < prev->lamport_start)
            violate(s.trace_id, "stage-completeness",
                    std::string(stage) + " Lamport-precedes " + prev->name +
                        " on host " + found->host + " in migration span " +
                        std::to_string(s.span_id));
        }
        prev = found;
      }

      // Invariant 2: flush completeness.  After the restart span closes,
      // no delivery into the migrated task's mailbox on the source host.
      if (mpvm_mig) {
        const std::string* task = s.attr("task");
        const std::string* from = s.attr("from");
        const SpanRecord* restart = nullptr;
        for (const SpanRecord* t : trace)
          if (t->name == "mpvm.restart" &&
              descends_from(by_id, *t, s.span_id))
            restart = t;
        if (task != nullptr && from != nullptr && restart != nullptr) {
          // Only deliveries in this migration's causal past count: host and
          // task names recur across traces (and across concatenated runs),
          // so an unrelated trace's flush-time delivery is not a violation.
          for (const SpanRecord* dp : trace) {
            const SpanRecord& d = *dp;
            if (!d.instant || d.name != "pvm.deliver") continue;
            const std::string* dt = d.attr("task");
            if (dt == nullptr || *dt != *task || d.host != *from) continue;
            if (d.start > restart->end)
              violate(s.trace_id, "flush-completeness",
                      "message delivered to " + *task + " on source host " +
                          *from + " at t=" + std::to_string(d.start) +
                          " after restart closed at t=" +
                          std::to_string(restart->end));
          }
        }
      }
    }

    // Invariant 4: aborted migrations must be rolled back, recovered, or
    // explicitly lost.  Fenced spans did no work and need no cleanup.
    if (s.status == SpanStatus::kAborted) {
      const std::string* lost = s.attr("lost");
      bool handled = lost != nullptr && *lost == "1";
      for (const SpanRecord* t : trace) {
        if (handled) break;
        if (t->name == "ckpt.recover") handled = true;
        if ((t->name == "mpvm.rollback" || t->name == "upvm.rollback") &&
            descends_from(by_id, *t, s.span_id))
          handled = true;
      }
      if (!handled)
        violate(s.trace_id, "abort-handling",
                "aborted " + s.name + " span " + std::to_string(s.span_id) +
                    " has no rollback/recovery child and is not marked lost");
    }
  }

  // Invariant 3: fencing epochs monotone along every trace (creation order,
  // which is causal order on a single tracer), traces in id order.
  long long prev_epoch = -1;
  SpanId prev_span = 0;
  for (std::size_t k = 0; k < by_trace.size(); ++k) {
    const SpanRecord* t = by_trace[k];
    if (k > 0 && by_trace[k - 1]->trace_id != t->trace_id) {
      prev_epoch = -1;
      prev_span = 0;
    }
    const std::string* e = t->attr("epoch");
    if (e == nullptr) continue;
    const long long epoch = std::atoll(e->c_str());
    if (epoch < prev_epoch)
      violate(t->trace_id, "epoch-monotonicity",
              "epoch " + std::to_string(epoch) + " in span " +
                  std::to_string(t->span_id) + " after epoch " +
                  std::to_string(prev_epoch) + " in span " +
                  std::to_string(prev_span));
    prev_epoch = epoch;
    prev_span = t->span_id;
  }

  return out;
}

std::string TraceAuditor::format(
    const std::vector<AuditViolation>& violations) {
  std::ostringstream os;
  for (const auto& v : violations)
    os << "trace=" << v.trace_id << " [" << v.invariant << "] " << v.detail
       << "\n";
  return os.str();
}

}  // namespace cpe::obs
