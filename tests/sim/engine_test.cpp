#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <string>
#include <tuple>
#include <vector>

// -- Global allocation counter ------------------------------------------------
// Replaces the global allocator for the whole test binary so individual tests
// can assert that a code path performs no heap allocation (Engine::cancel is
// noexcept and must never allocate).  Counting only; semantics unchanged.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates via new(nothrow) but frees via plain delete, and mixing
// the runtime's nothrow-new with our free() trips ASan's matcher.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cpe::sim {

/// Test-only backdoor used by the generation-wraparound cases.
struct EngineTestPeer {
  static void set_generation(Engine& eng, std::uint32_t slot,
                             std::uint32_t gen) {
    eng.slots_[slot].gen = gen;
  }
  static std::uint32_t generation(const Engine& eng, std::uint32_t slot) {
    return eng.slots_[slot].gen;
  }
};

namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.pending_count(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 3.0);
}

TEST(Engine, EqualTimestampsFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    eng.schedule_at(5.0, [&, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelativeToNow) {
  Engine eng;
  double fired_at = -1;
  eng.schedule_at(4.0, [&] {
    eng.schedule_in(2.5, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 6.5);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  double fired_at = -1;
  eng.schedule_at(4.0, [&] {
    eng.schedule_in(-3.0, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Engine, SchedulingInThePastClampsToNow) {
  Engine eng;
  double fired_at = -1;
  eng.schedule_at(4.0, [&] {
    eng.schedule_at(1.0, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Engine, NanTimesAreRejectedWhereTheyAreScheduled) {
  // A NaN time compares false against everything, so it could slip past
  // the past-time clamp, wait in the queue, and trip an invariant only when
  // it popped.  Both entry points reject it up front; the events around it
  // keep their order and the run completes.
  Engine eng;
  std::vector<int> fired;
  const auto at = [&](int t) {
    eng.schedule_at(t, [&fired, t] { fired.push_back(t); });
  };
  at(3);
  at(1);
  at(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    eng.schedule_at(nan, [] {});
    FAIL() << "schedule_at accepted a NaN time";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("event time is NaN"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(eng.schedule_in(nan, [] {}), ContractError);
  at(5);
  at(4);
  EXPECT_EQ(eng.pending_count(), 5u);
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5}));
  // +infinity stays legal: kForever parks an event that never comes due.
  const EventId parked = eng.schedule_at(kForever, [] {});
  eng.run_until(1e9);
  EXPECT_TRUE(eng.pending(parked));
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  EventId id = eng.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(eng.pending(id));
  eng.cancel(id);
  EXPECT_FALSE(eng.pending(id));
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotentAndSafeOnStaleIds) {
  Engine eng;
  EventId id = eng.schedule_at(1.0, [] {});
  eng.cancel(id);
  eng.cancel(id);           // double cancel
  eng.cancel(EventId{});    // invalid id
  eng.run();
  EventId id2 = eng.schedule_at(2.0, [] {});
  eng.run();
  eng.cancel(id2);          // already fired
  SUCCEED();
}

TEST(Engine, SlotReuseDoesNotConfuseStaleHandles) {
  Engine eng;
  bool second_fired = false;
  EventId first = eng.schedule_at(1.0, [] {});
  eng.cancel(first);
  // The freed slot is reused by the next event; the stale id must not be
  // able to cancel it.
  EventId second = eng.schedule_at(2.0, [&] { second_fired = true; });
  EXPECT_EQ(first.slot, second.slot);
  eng.cancel(first);
  eng.run();
  EXPECT_TRUE(second_fired);
}

TEST(Engine, PendingCountTracksLiveEvents) {
  Engine eng;
  EventId a = eng.schedule_at(1.0, [] {});
  eng.schedule_at(2.0, [] {});
  EXPECT_EQ(eng.pending_count(), 2u);
  eng.cancel(a);
  EXPECT_EQ(eng.pending_count(), 1u);
  eng.run();
  EXPECT_EQ(eng.pending_count(), 0u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine eng;
  EXPECT_FALSE(eng.step());
  eng.schedule_at(1.0, [] {});
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine eng;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    eng.schedule_at(t, [&, t] { fired.push_back(t); });
  eng.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  eng.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine eng;
  eng.run_until(42.0);
  EXPECT_DOUBLE_EQ(eng.now(), 42.0);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.schedule_in(1.0, chain);
  };
  eng.schedule_at(0.0, chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(eng.now(), 99.0);
}

TEST(Engine, RunThrowsOnEventBudgetExhaustion) {
  Engine eng;
  std::function<void()> forever = [&] { eng.schedule_in(1.0, forever); };
  eng.schedule_at(0.0, forever);
  EXPECT_THROW(eng.run(1000), Error);
}

TEST(Engine, ReportedFailureRethrownFromRun) {
  Engine eng;
  eng.schedule_at(1.0, [&] {
    eng.report_failure(std::make_exception_ptr(Error("boom")));
  });
  EXPECT_THROW(eng.run(), Error);
}

TEST(Engine, CallbackCancellingLaterEventWorks) {
  Engine eng;
  bool late_fired = false;
  EventId late = eng.schedule_at(5.0, [&] { late_fired = true; });
  eng.schedule_at(1.0, [&] { eng.cancel(late); });
  eng.run();
  EXPECT_FALSE(late_fired);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine eng;
  std::vector<std::pair<double, int>> fired;
  // Schedule out of order with duplicate timestamps.
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 100);
    eng.schedule_at(t, [&, t, i] { fired.emplace_back(t, i); });
  }
  eng.run();
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);  // FIFO at same t
    }
  }
}

TEST(Engine, CancelNeverAllocates) {
  Engine eng;
  // Warm the arena: slots, free list, and bucket vectors all reach steady
  // capacity, then every later schedule/cancel recycles pooled storage.
  std::vector<EventId> ids;
  for (int round = 0; round < 3; ++round) {
    ids.clear();
    for (int i = 0; i < 512; ++i)
      ids.push_back(eng.schedule_in(1.0 + i * 0.01, [&eng] { (void)eng; }));
    for (EventId id : ids) eng.cancel(id);
  }
  ids.clear();
  for (int i = 0; i < 512; ++i)
    ids.push_back(eng.schedule_in(1.0 + i * 0.01, [&eng] { (void)eng; }));
  const std::uint64_t before = g_heap_allocs.load();
  for (EventId id : ids) eng.cancel(id);  // includes compaction sweeps
  EXPECT_EQ(g_heap_allocs.load(), before)
      << "noexcept Engine::cancel must not allocate";
  EXPECT_EQ(eng.pending_count(), 0u);
}

TEST(Engine, SmallCaptureSchedulingIsAllocationFreeInSteadyState) {
  Engine eng;
  int fired = 0;
  // Warm-up: enough schedule/fire cycles to size every calendar bucket.
  for (int i = 0; i < 64; ++i) {
    eng.schedule_in(1.0, [&fired] { ++fired; });
    eng.run();
  }
  const std::uint64_t before = g_heap_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    eng.schedule_in(1.0, [&fired] { ++fired; });
    eng.run();
  }
  EXPECT_EQ(g_heap_allocs.load(), before)
      << "pooled small-callable slots must recycle without heap traffic";
  EXPECT_EQ(fired, 1064);
}

TEST(Engine, LargeCapturesFallBackToHeapAndStillFire) {
  Engine eng;
  std::array<char, 100> big{};  // exceeds EventFn::kInlineBytes
  big[0] = 7;
  big[99] = 9;
  int out = 0;
  eng.schedule_at(1.0, [big, &out] { out = big[0] + big[99]; });
  eng.run();
  EXPECT_EQ(out, 16);
}

TEST(Engine, ManyReportedFailuresRethrowInOrder) {
  Engine eng;
  constexpr int kFailures = 200;
  for (int i = 0; i < kFailures; ++i)
    eng.report_failure(
        std::make_exception_ptr(Error("failure-" + std::to_string(i))));
  for (int i = 0; i < kFailures; ++i) {
    try {
      eng.step();
      FAIL() << "expected failure " << i << " to rethrow";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "failure-" + std::to_string(i));
    }
  }
  EXPECT_FALSE(eng.step());  // drained: back to normal operation
}

TEST(Engine, GenerationWraparoundDoesNotResurrectOldHandles) {
  Engine eng;
  bool old_fired = false;
  EventId seed = eng.schedule_at(1.0, [&old_fired] { old_fired = true; });
  eng.cancel(seed);
  // Force the slot to the maximum generation, then reuse it: the fire path
  // increments the generation, wrapping it to 0.
  EngineTestPeer::set_generation(eng, seed.slot, 0xffffffffu);
  bool wrapped_fired = false;
  EventId wrapped =
      eng.schedule_at(1.0, [&wrapped_fired] { wrapped_fired = true; });
  ASSERT_EQ(wrapped.slot, seed.slot);
  EXPECT_EQ(wrapped.gen, 0xffffffffu);
  eng.run();
  EXPECT_TRUE(wrapped_fired);
  EXPECT_EQ(EngineTestPeer::generation(eng, seed.slot), 0u);  // wrapped
  // A post-wrap event in the same slot must be immune to the pre-wrap
  // handle: gen 0xffffffff vs live gen 0.
  bool post_fired = false;
  EventId post = eng.schedule_at(2.0, [&post_fired] { post_fired = true; });
  ASSERT_EQ(post.slot, seed.slot);
  EXPECT_EQ(post.gen, 0u);
  eng.cancel(wrapped);
  EXPECT_FALSE(eng.pending(wrapped));
  EXPECT_TRUE(eng.pending(post));
  eng.run();
  EXPECT_TRUE(post_fired);
  EXPECT_FALSE(old_fired);
}

TEST(Engine, SlotReuseAbaAcrossMultipleCycles) {
  Engine eng;
  int fired_a = 0, fired_b = 0, fired_c = 0;
  // Cycle 1: schedule + cancel.
  EventId a = eng.schedule_at(1.0, [&fired_a] { ++fired_a; });
  eng.cancel(a);
  // Cycle 2: same slot, schedule + cancel.
  EventId b = eng.schedule_at(1.0, [&fired_b] { ++fired_b; });
  ASSERT_EQ(b.slot, a.slot);
  eng.cancel(b);
  // Cycle 3: same slot, stays live.
  EventId c = eng.schedule_at(1.0, [&fired_c] { ++fired_c; });
  ASSERT_EQ(c.slot, a.slot);
  // Stale handles from both prior cycles must not touch the live event.
  eng.cancel(a);
  eng.cancel(b);
  EXPECT_TRUE(eng.pending(c));
  EXPECT_FALSE(eng.pending(a));
  EXPECT_FALSE(eng.pending(b));
  eng.run();
  EXPECT_EQ(fired_a, 0);
  EXPECT_EQ(fired_b, 0);
  EXPECT_EQ(fired_c, 1);
  // And a fired-then-reused slot: the fired handle must be stale too.
  EventId d = eng.schedule_at(3.0, [] {});
  ASSERT_EQ(d.slot, a.slot);
  eng.cancel(c);  // stale: c already fired
  EXPECT_TRUE(eng.pending(d));
  eng.cancel(d);
}

TEST(Engine, MassCancelCompactionPreservesSurvivors) {
  Engine eng;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(eng.schedule_at(static_cast<double>(i % 97),
                                  [&fired, i] { fired.push_back(i); }));
  // Cancel 90%: stale entries outnumber live ones, forcing compaction.
  for (int i = 0; i < 1000; ++i)
    if (i % 10 != 3) eng.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(eng.pending_count(), 100u);
  eng.run();
  ASSERT_EQ(fired.size(), 100u);
  for (int i : fired) EXPECT_EQ(i % 10, 3);
  // Survivors still fire in (t, schedule order): re-derive the expected
  // order and compare exactly.
  std::vector<int> expect;
  for (int i = 0; i < 1000; ++i)
    if (i % 10 == 3) expect.push_back(i);
  std::stable_sort(expect.begin(), expect.end(),
                   [](int x, int y) { return x % 97 < y % 97; });
  EXPECT_EQ(fired, expect);
}

TEST(Engine, SparseFarApartTimesSkipEmptyYears) {
  Engine eng;
  std::vector<double> fired;
  for (double t : {1e9, 1e6, 1e3, 5.0, 1e-3})
    eng.schedule_at(t, [&fired, t] { fired.push_back(t); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<double>{1e-3, 5.0, 1e3, 1e6, 1e9}));
  EXPECT_DOUBLE_EQ(eng.now(), 1e9);
}

TEST(Engine, SameTimestampBurstFiresFifo) {
  Engine eng;
  std::vector<int> order;
  constexpr int kBurst = 5000;
  for (int i = 0; i < kBurst; ++i)
    eng.schedule_at(10.0, [&order, i] { order.push_back(i); });
  eng.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i)
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CalendarMatchesReferenceModelUnderChurn) {
  // Golden-model fuzz: random schedule/cancel/run_until churn, checked
  // against a from-scratch (t, schedule seq) sort of the survivors.
  Engine eng;
  std::mt19937_64 rng(0xC0FFEEu);
  struct Rec {
    double t;
    int serial;
    EventId id;
    bool cancelled = false;
  };
  std::vector<Rec> recs;
  std::vector<std::pair<double, int>> fired;
  int serial = 0;
  for (int round = 0; round < 40; ++round) {
    const int batch = static_cast<int>(rng() % 120);
    for (int i = 0; i < batch; ++i) {
      // Quantized offsets make duplicate timestamps common (FIFO stress).
      const double t =
          eng.now() + static_cast<double>(rng() % 256) / 4.0;
      const int s = serial++;
      recs.push_back(
          {t, s, eng.schedule_at(t, [&fired, t, s] {
             fired.emplace_back(t, s);
           })});
    }
    for (Rec& r : recs) {
      if (!r.cancelled && rng() % 3 == 0 && eng.pending(r.id)) {
        eng.cancel(r.id);
        r.cancelled = true;
      }
    }
    eng.run_until(eng.now() + static_cast<double>(rng() % 40));
  }
  eng.run();
  std::vector<std::pair<double, int>> expect;
  for (const Rec& r : recs)
    if (!r.cancelled) expect.emplace_back(r.t, r.serial);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(Engine, OverflowEntriesFireInOrderAsWindowAdvances) {
  // Bimodal offsets: mostly near-future events keep the calendar width
  // tight, while occasional far-future pushes land past the wheel mapping
  // and park in the overflow heap.  As the window advances those parked
  // entries must be adopted *before* any later-timestamped bucket entry —
  // the golden-model comparison catches any out-of-order pop.
  Engine eng;
  std::mt19937_64 rng(0xBADCAB1Eu);
  std::vector<std::pair<double, int>> fired;
  std::vector<std::pair<double, int>> expect;
  int serial = 0;
  for (int round = 0; round < 60; ++round) {
    const int batch = 20 + static_cast<int>(rng() % 60);
    for (int i = 0; i < batch; ++i) {
      const bool far = rng() % 16 == 0;
      const double off = far
          ? 1e4 + static_cast<double>(rng() % 100'000)
          : static_cast<double>(rng() % 128) / 8.0;
      const double t = eng.now() + off;
      const int s = serial++;
      eng.schedule_at(t, [&fired, t, s] { fired.emplace_back(t, s); });
      expect.emplace_back(t, s);
    }
    eng.run_until(eng.now() + static_cast<double>(rng() % 32));
  }
  eng.run();
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(Engine, CalendarBucketEdgesNeverPopALapLate) {
  // Golden-model fuzz straight over the queue: 2-40 timers with integer
  // periods (GS polls, heartbeats, analytics windows) plus random one-shots
  // that keep the bucket width moving.  Integer timestamps keep landing
  // exactly on a bucket edge v * width, where a bucket index taken as
  // floor(t * (1 / width)) can fall one below the window whose bound is the
  // product (v + 1) * width — and such an entry pops a whole lap late.  A
  // min-queue must hand out (t, seq) in non-decreasing order.
  constexpr std::uint32_t kOneShot = ~0u;
  std::string out_of_order;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    std::mt19937_64 rng(seed);
    detail::CalendarQueue q;
    std::uint64_t seq = 0;
    std::vector<double> period(2 + rng() % 39);
    for (std::size_t i = 0; i < period.size(); ++i) {
      period[i] = static_cast<double>(1 + rng() % 12);
      q.push({period[i], seq++, static_cast<std::uint32_t>(i), 0});
    }
    detail::Entry last{0.0, 0, 0, 0};
    for (int pop = 0; pop < 400; ++pop) {
      const detail::Entry e = q.pop();
      if (e.t < last.t || (e.t == last.t && e.seq < last.seq)) {
        out_of_order += " seed " + std::to_string(seed) + ": t=" +
                        std::to_string(e.t) + " after t=" +
                        std::to_string(last.t) + ";";
        break;
      }
      last = e;
      if (e.slot != kOneShot)
        q.push({e.t + period[e.slot], seq++, e.slot, 0});
      if (rng() % 4 == 0)
        q.push({e.t + static_cast<double>(rng() % 60), seq++, kOneShot, 0});
    }
  }
  EXPECT_TRUE(out_of_order.empty()) << out_of_order;
}

}  // namespace
}  // namespace cpe::sim
