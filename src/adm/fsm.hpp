// The event-driven finite-state-machine program structure ADM imposes
// (paper §2.3, Figure 4).
//
// ADM applications are written "at a coarse level ... as a finite-state
// machine": well-defined states, explicit transitions, and careful reasoning
// that no sequence of migration events can be mis-handled.  This class makes
// the structure explicit and *checked*: undeclared transitions throw, and
// every transition is recorded as an `adm.fsm` instant span (attributes
// `slave`, `from`, `to`) so tests (and the Figure 4 bench) can assert on
// exact state paths.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "sim/assert.hpp"

namespace cpe::adm {

class Fsm {
 public:
  /// Transitions are recorded on `host`'s timeline, on `track` (the slave
  /// task's tid), and attributed to `slave`.
  Fsm(obs::SpanTracer& spans, std::string host, std::int64_t track, int slave,
      std::string initial)
      : spans_(&spans),
        host_(std::move(host)),
        track_(track),
        slave_(slave),
        state_(std::move(initial)) {
    states_.push_back(state_);
  }

  /// Declare a state (idempotent).
  void add_state(const std::string& name) {
    if (!has_state(name)) states_.push_back(name);
  }

  /// Declare a legal transition.
  void allow(const std::string& from, const std::string& to) {
    CPE_EXPECTS(has_state(from));
    CPE_EXPECTS(has_state(to));
    edges_.emplace_back(from, to);
  }

  [[nodiscard]] const std::string& state() const noexcept { return state_; }

  [[nodiscard]] bool can_transition(const std::string& to) const {
    for (const auto& [f, t] : edges_)
      if (f == state_ && t == to) return true;
    return false;
  }

  /// Move to `to`; throws on an undeclared edge — the "great care must be
  /// taken to ensure correctness" the paper warns about, made mechanical.
  /// The transition's span joins `ctx`'s trace (a fresh one when invalid).
  void transition(const std::string& to, const obs::TraceContext& ctx = {}) {
    if (!can_transition(to))
      throw Error("adm::Fsm(slave " + std::to_string(slave_) +
                  "): illegal transition " + state_ + " -> " + to);
    const obs::SpanId ev = spans_->event(ctx, "adm.fsm", host_, track_);
    spans_->annotate(ev, "slave", std::to_string(slave_));
    spans_->annotate(ev, "from", state_);
    spans_->annotate(ev, "to", to);
    state_ = to;
    path_.push_back(to);
  }

  /// States visited, in order (excluding the initial state).
  [[nodiscard]] const std::vector<std::string>& path() const noexcept {
    return path_;
  }

 private:
  [[nodiscard]] bool has_state(const std::string& s) const {
    for (const auto& st : states_)
      if (st == s) return true;
    return false;
  }

  obs::SpanTracer* spans_;
  std::string host_;
  std::int64_t track_;
  int slave_;
  std::string state_;
  std::vector<std::string> states_;
  std::vector<std::pair<std::string, std::string>> edges_;
  std::vector<std::string> path_;
};

}  // namespace cpe::adm
