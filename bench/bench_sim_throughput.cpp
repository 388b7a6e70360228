// Sim-core throughput: the event engine vs the pinned legacy engine.
//
// The engine (DESIGN.md §13) keeps its pending events in a binary min-heap
// of small (t, seq, slot) entries, stores callbacks inline in a pooled slot
// arena, and removes cancelled timers lazily, compacting them in bulk.  This
// bench pins the engine it replaced verbatim (namespace legacy below —
// std::priority_queue plus std::function slots, exactly as shipped before
// the rework) and races the two on the access patterns the simulator
// actually generates:
//
//  * hold: N pending events in steady state; every fired event reschedules
//    itself a bounded-uniform delay ahead (what CPU slices, gossip beats
//    and periodic timers look like);
//  * timer_churn: K retransmission timers armed ~10 s out, constantly
//    cancelled-and-rearmed as "acks" land, with virtual time crawling
//    forward so stale entries drain — the pattern that made lazy deletion
//    and cancel() the hot path.
//
// Each gated row checks its own floor, in both modes:
//
//  * hold_2k and hold_10k floor at >= 1.0x.  2,000 and 10,000 pending are
//    the peaks the simulations reach: perfbench's workloads hold at most
//    1,549 pending events and the full 1024-host bench_load_scale 9,289.
//    Both engines are heaps there, so what separates them is the callback
//    storage (the legacy engine allocates a std::function node per event);
//    the floor says the engine never loses where it runs.  Legacy and
//    engine are timed in kPairs back-to-back pairs, which side runs first
//    alternating, and the gate reads the median of the pairs' ratios: a
//    slow spell on a shared box slows both runs of a pair and leaves their
//    ratio alone, where it could drag one side's median below the other's.
//  * timer_churn carries the >= 5x acceptance bar (1.5x in smoke).  The
//    legacy engine pays an O(log n) pop for every stale entry it ever
//    buried, plus a heap allocation per rearm, while the engine compacts
//    stale entries in one linear sweep and keeps the callable inline.
//    Best of kRepeats per engine, so a noisy neighbour can only help the
//    slower number.
//  * analytics_overhead: the 10k hold with telemetry on against the same
//    hold plain, timed in pairs like the hold rows.
//
// The hold at a million pending (100,000 in smoke) is a printed stress row,
// best of kRepeats, and gates nothing: no simulation comes near it.
//
// --smoke mode runs 1/8th the events and the smaller stress row, with the
// loose churn floor and overhead limit, so CI can afford it per commit.
// Rows and gates land in BENCH_sim.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <utility>
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
/// Back-to-back pairs timed for a paired-ratio gate.
constexpr int kPairs = 9;

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

/// The hold workload again on the engine, but fully metered: every
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
  std::string name;
  std::size_t pending;
  std::size_t events;
  double limit;  // speedup floor; 0 for a printed stress row
  double base_eps;
  double eng_eps;
  double speedup;
};

template <class Fn>
double best_of(Fn&& fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) best = std::max(best, fn());
  return best;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Paired {
  double a_eps;  // median rate of each side
  double b_eps;
  double ratio;  // median over the pairs of b's rate / a's
};

/// Time `a` and `b` in kPairs back-to-back pairs, which one runs first
/// alternating.
template <class A, class B>
Paired time_pairs(A&& a, B&& b) {
  std::vector<double> ra, rb, ratio;
  for (int k = 0; k < kPairs; ++k) {
    if (k % 2 == 0) {
      ra.push_back(a());
      rb.push_back(b());
    } else {
      rb.push_back(b());
      ra.push_back(a());
    }
    ratio.push_back(rb.back() / ra.back());
  }
  return {median(std::move(ra)), median(std::move(rb)),
          median(std::move(ratio))};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Full-mode churn uses 60 rounds over 2.5 horizons -> ~24:1 stale:live in
  // the legacy heap.
  const double churn_limit = smoke ? 1.5 : 5.0;
  const std::size_t hold_events = smoke ? 500'000 : 4'000'000;
  const std::size_t stress_pending = smoke ? 100'000 : 1'000'000;
  const std::size_t churn_timers = smoke ? 25'000 : 100'000;
  const std::size_t churn_ops = smoke ? 500'000 : 6'000'000;

  std::printf("\n=== Sim-core throughput: event engine vs legacy engine%s ===\n",
              smoke ? " (smoke)" : "");
  std::printf("  %-14s %9s %14s %14s %9s %7s\n", "workload", "pending",
              "legacy ev/s", "engine ev/s", "speedup", "floor");

  std::vector<Row> rows;
  for (const std::size_t pending : {std::size_t{2'000}, std::size_t{10'000}}) {
    const Paired p = time_pairs(
        [&] { return run_hold<legacy::Engine>(pending, hold_events); },
        [&] { return run_hold<cpe::sim::Engine>(pending, hold_events); });
    rows.push_back({"hold_" + std::to_string(pending / 1000) + "k", pending,
                    hold_events, 1.0, p.a_eps, p.b_eps, p.ratio});
  }
  {
    Row r{"timer_churn", churn_timers, churn_ops, churn_limit, 0, 0, 0};
    r.base_eps = best_of([&] { return run_churn<legacy::Engine>(
        churn_timers, churn_ops); });
    r.eng_eps = best_of([&] { return run_churn<cpe::sim::Engine>(
        churn_timers, churn_ops); });
    r.speedup = r.eng_eps / r.base_eps;
    rows.push_back(r);
  }
  {
    Row r{smoke ? "hold_100k" : "hold_1m", stress_pending, hold_events, 0, 0,
          0, 0};
    r.base_eps = best_of([&] { return run_hold<legacy::Engine>(
        stress_pending, hold_events); });
    r.eng_eps = best_of([&] { return run_hold<cpe::sim::Engine>(
        stress_pending, hold_events); });
    r.speedup = r.eng_eps / r.base_eps;
    rows.push_back(r);
  }

  cpe::bench::Report rep("sim_throughput", smoke ? "smoke" : "full");
  for (const Row& r : rows) {
    char floor[16] = "      -";
    if (r.limit > 0) std::snprintf(floor, sizeof floor, "%6.1fx", r.limit);
    std::printf("  %-14s %9zu %14.0f %14.0f %8.2fx %s\n", r.name.c_str(),
                r.pending, r.base_eps, r.eng_eps, r.speedup, floor);
    rep.row("workloads", {{"name", r.name},
                          {"pending", r.pending},
                          {"events", r.events},
                          {"baseline_eps", r.base_eps},
                          {"engine_eps", r.eng_eps},
                          {"speedup", r.speedup}});
    if (r.limit > 0) rep.gate(r.name + ".speedup", r.speedup, ">=", r.limit);
  }

  // Telemetry overhead: the 10k hold with the metrics counter and the
  // Analytics sampler left on, against the same workload plain, timed in
  // pairs.  Full mode gates at 2% (the acceptance bar for always-on
  // telemetry); smoke loosens to 10% — at 1/8th scale one scheduler hiccup
  // on a shared CI box is worth more than 2% of the run.
  constexpr std::size_t kOverheadPending = 10'000;
  const double overhead_limit = smoke ? 0.10 : 0.02;
  const Paired m = time_pairs(
      [&] {
        return run_hold<cpe::sim::Engine>(kOverheadPending, hold_events);
      },
      [&] { return run_hold_metered(kOverheadPending, hold_events); });
  const double overhead = 1.0 - m.ratio;
  std::printf("  %-14s %9zu %14s %14.0f %7.2f%% %5.0f%%\n", "hold_metered",
              kOverheadPending, "-", m.b_eps, overhead * 100.0,
              overhead_limit * 100.0);
  rep.row("telemetry", {{"pending", kOverheadPending},
                        {"plain_eps", m.a_eps},
                        {"metered_eps", m.b_eps},
                        {"overhead", overhead}});
  rep.gate("analytics_overhead", overhead, "<=", overhead_limit);

  std::printf(
      "\n  Gate (hold_2k %.2fx, hold_10k %.2fx >= 1.0x, timer_churn %.2fx >= "
      "%.1fx, analytics overhead %.2f%% <= %.0f%%): %s\n",
      rows[0].speedup, rows[1].speedup, rows[2].speedup, churn_limit,
      overhead * 100.0, overhead_limit * 100.0, rep.pass() ? "PASS" : "FAIL");
  rep.write("BENCH_sim.json");
  return rep.pass() ? 0 : 1;
}
