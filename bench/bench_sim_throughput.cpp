// Sim-core throughput: calendar event queue vs the pinned legacy engine.
//
// The engine rework (DESIGN.md §13) replaced the binary-heap event queue +
// per-event std::function with a calendar queue, a pooled small-callable
// arena, and lazy deletion with compaction.  This bench pins the *old*
// engine verbatim (namespace legacy below — std::priority_queue plus
// std::function slots, exactly as shipped before the rework) and races the
// two on the access patterns the simulator actually generates:
//
//  * hold: N pending events in steady state; every fired event reschedules
//    itself a bounded-uniform delay ahead (the classic calendar-queue hold
//    model — what timer wheels, CPU slices, and gossip beats look like);
//  * timer_churn: K retransmission timers armed ~10 s out, constantly
//    cancelled-and-rearmed as "acks" land, with virtual time crawling
//    forward so stale entries drain — the pattern that made lazy deletion
//    and cancel() the hot path.
//
// Reported per workload: wall-clock events/sec for both engines (best of
// kRepeats, so a noisy neighbour can only help the *slower* number) and the
// speedup ratio.  Each workload gates against its own floor:
//
//  * timer_churn carries the headline >= 5x acceptance bar.  It is the
//    profile the rework was built for — the legacy engine pays an O(log n)
//    all-cache-miss pop for every stale entry it ever buried, plus a heap
//    allocation per rearm, while the calendar queue compacts stale entries
//    in one linear sweep and keeps the callable inline.
//  * hold floors at >= 2.5x.  With zero cancellations both engines do one
//    push and one pop per event, so the gap is "log(n) cache-missing heap
//    levels" versus "a handful of bucket/slot lines" — ~3x at a million
//    pending, and it grows only logarithmically.  A 5x demand here would be
//    asking the benchmark to lie; the floor instead catches regressions.
//
// --smoke mode runs ~1/8th the events with loose 1.5x floors so CI can
// afford it per-commit: at that scale the legacy heap is half cache-resident
// and a loaded CI box adds noise, so it exists to catch "the calendar queue
// got slower than the heap", not to re-prove the 5x.  Rows and gates land
// in BENCH_sim.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "obs/analytics.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace legacy {

// The pre-rework engine, pinned byte-for-byte (modulo namespace) so the
// baseline cannot silently inherit future improvements.
using cpe::sim::Time;

struct EventId {
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  [[nodiscard]] bool valid() const noexcept { return slot != kInvalidSlot; }
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  EventId schedule_at(Time t, std::function<void()> fn) {
    if (t < now_) t = now_;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].fn = std::move(fn);
    const std::uint32_t gen = slots_[slot].gen;
    queue_.push(QueueEntry{t, next_seq_++, slot, gen});
    ++live_;
    return EventId{slot, gen};
  }

  EventId schedule_in(Time dt, std::function<void()> fn) {
    return schedule_at(now_ + (dt > 0 ? dt : 0), std::move(fn));
  }

  void cancel(EventId id) noexcept {
    if (!id.valid() || id.slot >= slots_.size()) return;
    Slot& s = slots_[id.slot];
    if (s.gen != id.gen || !s.fn) return;
    ++s.gen;
    s.fn = nullptr;
    free_slots_.push_back(id.slot);
    --live_;
  }

  bool step() {
    while (!queue_.empty()) {
      QueueEntry e = queue_.top();
      queue_.pop();
      Slot& s = slots_[e.slot];
      if (s.gen != e.gen || !s.fn) continue;
      now_ = e.t;
      std::function<void()> fn = std::move(s.fn);
      s.fn = nullptr;
      ++s.gen;
      free_slots_.push_back(e.slot);
      --live_;
      fn();
      return true;
    }
    return false;
  }

  std::size_t run_until(Time t) {
    std::size_t n = 0;
    while (!queue_.empty()) {
      const QueueEntry& top = queue_.top();
      if (slots_[top.slot].gen != top.gen || !slots_[top.slot].fn) {
        queue_.pop();
        continue;
      }
      if (top.t > t) break;
      step();
      ++n;
    }
    now_ = t;
    return n;
  }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    std::function<void()> fn;
  };
  struct QueueEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    [[nodiscard]] bool operator>(const QueueEntry& o) const noexcept {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
};

}  // namespace legacy

namespace {

constexpr int kRepeats = 3;

/// Deterministic xorshift64*: cheap enough that the RNG never becomes the
/// thing being measured.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Hold model: `npending` self-rescheduling events in steady state; run
/// `nevents` firings.  The callback captures 24 bytes — a this-pointer and
/// a couple of words of arguments, the shape of every net/timer callback in
/// the tree.  That fits the new engine's 48-byte inline slot but overflows
/// std::function's small-object buffer, so the baseline pays the allocation
/// it always paid.
template <class Eng>
double run_hold(std::size_t npending, std::size_t nevents) {
  Eng eng;
  struct State {
    Eng* eng;
    Rng rng{0x9E3779B97F4A7C15ull};
    std::uint64_t fired = 0;
  };
  State st{&eng};

  struct Reschedule {
    State* st;
    std::uint64_t salt;    // captured argument words, as real callbacks have
    std::uint64_t serial;
    void operator()() const {
      State& s = *st;
      ++s.fired;
      const double dt =
          static_cast<double>(s.rng.next() & 1023u) * (1.0 / 256.0);
      s.eng->schedule_in(dt, Reschedule{st, salt ^ s.fired, serial + 1});
    }
  };
  static_assert(sizeof(Reschedule) == 24);

  for (std::size_t i = 0; i < npending; ++i) {
    const double t0 = static_cast<double>(st.rng.next() & 1023u) / 256.0;
    eng.schedule_at(t0, Reschedule{&st, st.rng.next(), 0});
  }

  const auto t0 = std::chrono::steady_clock::now();
  while (st.fired < nevents) eng.step();
  const double secs = wall_seconds(t0);
  return static_cast<double>(st.fired) / secs;
}

/// Retransmission-timer churn: K timers armed ~10 s out.  Each op cancels a
/// pseudo-random victim and rearms it (an "ack" landed); after every K ops
/// virtual time advances so that stale entries become poppable — the run
/// always crosses the full timer horizon, so the lazy-deletion drain (the
/// real cost of retransmission timers that almost never fire) is exercised
/// at every scale, not just the push path.  With nops/ntimers rounds spread
/// over 2.5 horizons, a stale entry lives ~horizon/round_dt rounds, so the
/// legacy heap carries a stale:live ratio of roughly (0.4 * nops/ntimers):1
/// — full mode's ~24:1 matches a simulated net where almost every timer is
/// acked before it fires.
template <class Eng>
double run_churn(std::size_t ntimers, std::size_t nops) {
  Eng eng;
  std::uint64_t fired = 0;
  Rng rng{0xC0FFEE123456789ull};

  // 24-byte capture (this-pointer, message id, destination — the shape of
  // the net layer's real retransmission callbacks): inline in the new
  // engine's 48-byte slot, a heap allocation per rearm for std::function.
  auto arm = [&](double base) {
    const double jitter = static_cast<double>(rng.next() & 255u) / 256.0;
    return eng.schedule_at(
        base + 10.0 + jitter, [&fired, pad = rng.s, pad2 = ~rng.s] {
          fired += 1 + (pad & 0) + (pad2 & 0);
        });
  };

  std::vector<decltype(arm(0.0))> ids;
  ids.reserve(ntimers);
  for (std::size_t i = 0; i < ntimers; ++i) ids.push_back(arm(0.0));

  // 25 virtual seconds spread over the whole run: 2.5 timer horizons, so
  // stale entries from the early rounds drain during the later ones.
  const double round_dt =
      25.0 * static_cast<double>(ntimers) / static_cast<double>(nops);

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < nops) {
    for (std::size_t i = 0; i < ntimers && done < nops; ++i, ++done) {
      const std::size_t victim = rng.next() % ntimers;
      eng.cancel(ids[victim]);
      ids[victim] = arm(eng.now());
    }
    eng.run_until(eng.now() + round_dt);
  }
  const double secs = wall_seconds(t0);
  return (static_cast<double>(done) + static_cast<double>(fired)) / secs;
}

/// The hold workload again on the calendar engine, but fully metered: every
/// firing bumps a registry counter, and an Analytics sampler rolls windowed
/// rollups + one armed SLO rule on a 1-virtual-second cadence.  The ratio
/// against the plain run is the price of leaving telemetry on in
/// production simulations — gated at <= 2% (full mode).
double run_hold_metered(std::size_t npending, std::size_t nevents) {
  cpe::sim::Engine eng;
  cpe::obs::MetricsRegistry reg(&eng);
  cpe::obs::Counter& ops = reg.counter("sim.ops");
  cpe::obs::AnalyticsOptions aopt;
  aopt.window = 1.0;
  cpe::obs::Analytics an(eng, reg, aopt);
  an.track_counter("sim.ops");
  an.add_rule("rate(sim.ops) >= 0");  // always holds; pays evaluation cost
  an.start();

  struct State {
    cpe::sim::Engine* eng;
    cpe::obs::Counter* ops;
    Rng rng{0x9E3779B97F4A7C15ull};
    std::uint64_t fired = 0;
  };
  State st{&eng, &ops};

  // Same 24-byte callable as run_hold, plus the one counter bump.
  struct Reschedule {
    State* st;
    std::uint64_t salt;
    std::uint64_t serial;
    void operator()() const {
      State& s = *st;
      ++s.fired;
      s.ops->inc();
      const double dt =
          static_cast<double>(s.rng.next() & 1023u) * (1.0 / 256.0);
      s.eng->schedule_in(dt, Reschedule{st, salt ^ s.fired, serial + 1});
    }
  };
  static_assert(sizeof(Reschedule) == 24);

  for (std::size_t i = 0; i < npending; ++i) {
    const double t0 = static_cast<double>(st.rng.next() & 1023u) / 256.0;
    eng.schedule_at(t0, Reschedule{&st, st.rng.next(), 0});
  }

  const auto t0 = std::chrono::steady_clock::now();
  while (st.fired < nevents) eng.step();
  const double secs = wall_seconds(t0);
  return static_cast<double>(st.fired) / secs;
}

struct Row {
  const char* name;
  std::size_t events;
  double limit;  // per-workload speedup floor
  double base_eps;
  double cal_eps;
  [[nodiscard]] double speedup() const { return cal_eps / base_eps; }
};

template <class Fn>
double best_of(Fn&& fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) best = std::max(best, fn());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Full mode is the acceptance run: timer_churn (the production profile the
  // rework targeted) must show >= 5x, hold (pure push/pop, no cancels) must
  // hold its 2.5x floor.  A million pending events is a stress size, not a
  // regime any simulation here reaches: the event queue of the full
  // 1024-host bench_load_scale peaks at 9,289 entries (cancelled ones
  // included), that of the full bench_service_tail at 1,656, and the
  // perfbench workloads hold 1,549 pending events or fewer.  At a million
  // the legacy heap's O(log n) pops are all cache misses, which is what the
  // floors gate.  Full-mode churn uses 60 rounds over 2.5 horizons -> ~24:1
  // stale:live in the legacy heap.
  const double hold_limit = smoke ? 1.5 : 2.5;
  const double churn_limit = smoke ? 1.5 : 5.0;
  const std::size_t hold_pending = smoke ? 100'000 : 1'000'000;
  const std::size_t hold_events = smoke ? 500'000 : 4'000'000;
  const std::size_t churn_timers = smoke ? 25'000 : 100'000;
  const std::size_t churn_ops = smoke ? 500'000 : 6'000'000;

  std::printf("\n=== Sim-core throughput: calendar queue vs legacy heap%s ===\n",
              smoke ? " (smoke)" : "");
  std::printf("  %-14s %14s %14s %9s %7s\n", "workload", "legacy ev/s",
              "calendar ev/s", "speedup", "floor");

  std::vector<Row> rows;
  {
    Row r{"hold", hold_events, hold_limit, 0, 0};
    r.base_eps = best_of([&] { return run_hold<legacy::Engine>(
        hold_pending, hold_events); });
    r.cal_eps = best_of([&] { return run_hold<cpe::sim::Engine>(
        hold_pending, hold_events); });
    rows.push_back(r);
  }
  {
    Row r{"timer_churn", churn_ops, churn_limit, 0, 0};
    r.base_eps = best_of([&] { return run_churn<legacy::Engine>(
        churn_timers, churn_ops); });
    r.cal_eps = best_of([&] { return run_churn<cpe::sim::Engine>(
        churn_timers, churn_ops); });
    rows.push_back(r);
  }

  cpe::bench::Report rep("sim_throughput", smoke ? "smoke" : "full");
  for (const Row& r : rows) {
    std::printf("  %-14s %14.0f %14.0f %8.2fx %6.1fx\n", r.name, r.base_eps,
                r.cal_eps, r.speedup(), r.limit);
    rep.row("workloads", {{"name", r.name},
                          {"events", r.events},
                          {"baseline_eps", r.base_eps},
                          {"calendar_eps", r.cal_eps},
                          {"speedup", r.speedup()}});
    rep.gate(std::string(r.name) + ".speedup", r.speedup(), ">=", r.limit);
  }

  // Telemetry overhead: the hold workload with the metrics counter and the
  // Analytics sampler left on, against the plain calendar run above.  Full
  // mode gates at 2% (the acceptance bar for always-on telemetry); smoke
  // loosens to 10% — at 1/8th scale one scheduler hiccup on a shared CI
  // box is worth more than 2% of the run.
  const double overhead_limit = smoke ? 0.10 : 0.02;
  const double metered_eps =
      best_of([&] { return run_hold_metered(hold_pending, hold_events); });
  const double plain_eps = rows[0].cal_eps;
  const double overhead = 1.0 - metered_eps / plain_eps;
  std::printf("  %-14s %14s %14.0f %7.2f%% %5.0f%%\n", "hold_metered", "-",
              metered_eps, overhead * 100.0, overhead_limit * 100.0);
  rep.row("telemetry", {{"plain_eps", plain_eps},
                        {"metered_eps", metered_eps},
                        {"overhead", overhead}});
  rep.gate("analytics_overhead", overhead, "<=", overhead_limit);

  // The headline ratio is timer_churn's: the acceptance bar for the rework.
  const Row& headline = rows.back();
  std::printf(
      "\n  Gate (timer_churn %.2fx >= %.1fx, all floors held, analytics "
      "overhead %.2f%% <= %.0f%%): %s\n",
      headline.speedup(), headline.limit, overhead * 100.0,
      overhead_limit * 100.0, rep.pass() ? "PASS" : "FAIL");
  rep.write("BENCH_sim.json");
  return rep.pass() ? 0 : 1;
}
