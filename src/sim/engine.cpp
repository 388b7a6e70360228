#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cpe::sim {
namespace detail {
namespace {

[[nodiscard]] bool entry_less(const Entry& a, const Entry& b) noexcept {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

}  // namespace

void CalendarQueue::init_if_needed() {
  if (!buckets_.empty()) return;
  buckets_.resize(kMinBuckets);
  mask_ = kMinBuckets - 1;
  vcur_ = 0;
  bucket_top_ = width_;
}

void CalendarQueue::push(Entry e) {
  init_if_needed();
  maybe_grow();
  place(e);
  ++count_;
}

std::uint64_t CalendarQueue::bucket_of(Time t) const noexcept {
  // floor(t * inv_width_) can land one off the window bounds, which are the
  // products v * width_: with width 40.6, t = 203 gives 4.999999999999999
  // although 5 * width_ == 203.  Step to the bucket whose product bounds
  // hold t, or the entry sits one bucket below its window and pops a lap
  // late.
  const auto v = static_cast<std::uint64_t>(t * inv_width_);
  if (static_cast<Time>(v + 1) * width_ <= t) return v + 1;
  if (v > 0 && static_cast<Time>(v) * width_ > t) return v - 1;
  return v;
}

void CalendarQueue::place(Entry e) {
  if (count_ == 0) {
    // Empty queue: re-anchor the window at this entry, wherever virtual time
    // has wandered, so it lands in the heap directly.  Without this, a long
    // idle gap would strand the anchor far behind and push every new entry
    // through overflow + rebuild.
    if (e.t * inv_width_ < kMaxVirtualBucket) {
      vcur_ = bucket_of(e.t);
      bucket_top_ = static_cast<Time>(vcur_ + 1) * width_;
    }
  }
  if (e.t < bucket_top_) {
    // Due inside (or before) the active window: straight into the heap.
    // Safe because the engine never schedules into the past, so `e` cannot
    // undercut an already-popped timestamp.
    cur_heap_.push_back(e);
    std::push_heap(cur_heap_.begin(), cur_heap_.end(), EntryAfter{});
    return;
  }
  // The negated comparison routes NaN/inf timestamps to overflow too.
  if (!(e.t * inv_width_ < kMaxVirtualBucket)) {
    push_overflow(e);
    return;
  }
  const std::uint64_t v = bucket_of(e.t);
  // More than one wheel revolution out: park in overflow rather than letting
  // a far-future entry alias into the live lap, where every drained window
  // would have to sweep past it.  position() adopts overflow entries as the
  // window reaches them, and re-spreads the lot once the nearer entries are
  // exhausted.
  if (v - vcur_ >= buckets_.size()) {
    push_overflow(e);
    return;
  }
  buckets_[static_cast<std::size_t>(v) & mask_].push_back(e);
}

const Entry* CalendarQueue::peek() {
  return position() ? cur_heap_.data() : nullptr;
}

Entry CalendarQueue::pop() {
  const bool have = position();
  CPE_ASSERT(have);
  std::pop_heap(cur_heap_.begin(), cur_heap_.end(), EntryAfter{});
  const Entry e = cur_heap_.back();
  cur_heap_.pop_back();
  --count_;
  if (count_ == 0) {
    // Reset the window to a canonical anchor so a temporarily stretched
    // bucket_top_ (overflow adoption) cannot outlive the entries behind it.
    vcur_ = 0;
    bucket_top_ = width_;
  } else {
    maybe_shrink();
  }
  return e;
}

void CalendarQueue::push_overflow(Entry e) {
  // overflow_ is a (t, seq) min-heap (EntryAfter, like cur_heap_) so
  // adopt_due_overflow can peel due entries off the front in order.
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
}

void CalendarQueue::adopt_due_overflow() {
  // Every advance of bucket_top_ may move the window past parked overflow
  // entries; they must join the active-window heap before anything behind
  // the new bucket_top_ is popped, or pops go back in time.
  while (!overflow_.empty() && overflow_.front().t < bucket_top_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
    cur_heap_.push_back(overflow_.back());
    overflow_.pop_back();
    std::push_heap(cur_heap_.begin(), cur_heap_.end(), EntryAfter{});
  }
}

bool CalendarQueue::position() {
  if (count_ == 0) return false;
  if (!cur_heap_.empty()) return true;
  const std::size_t in_buckets = count_ - overflow_.size();
  if (in_buckets > 0) {
    // Sweep the wheel forward one window at a time.  Entries are placed at
    // most one revolution ahead, so the minimum is met within one lap.  (The
    // direct-search fallback below is defensive: it also terminates sweeps
    // that FP rounding at the lap boundary could otherwise prolong.)
    const std::size_t nb = buckets_.size();
    bool found = false;
    for (std::size_t lap = 0; lap < nb && !found; ++lap) {
      found = sweep_bucket();
      if (!found) {
        ++vcur_;
        bucket_top_ = static_cast<Time>(vcur_ + 1) * width_;
      }
    }
    if (!found) {
      const Entry* min = nullptr;
      for (const std::vector<Entry>& b : buckets_)
        for (const Entry& e : b)
          if (min == nullptr || entry_less(e, *min)) min = &e;
      CPE_ASSERT(min != nullptr);
      // Re-anchor the window at the minimum's own virtual bucket, sweep it.
      vcur_ = bucket_of(min->t);
      bucket_top_ = static_cast<Time>(vcur_ + 1) * width_;
      const bool swept = sweep_bucket();
      CPE_ASSERT(swept);
    }
    // The window advanced: anything parked in overflow that is now due
    // before bucket_top_ must contend in the heap, or it would be popped
    // after later-timestamped bucket entries.
    adopt_due_overflow();
    return true;
  }
  // Every pending entry sits in overflow.  If the earliest is finite,
  // rebuild: re-estimate the width over what remains and re-spread it across
  // the wheel, so the coming pops are O(1) again instead of one adoption
  // scan each.  The rebuild leaves the minimum in the heap or a bucket
  // within the new lap, so one recursion always suffices.
  std::size_t min_idx = 0;
  for (std::size_t i = 1; i < overflow_.size(); ++i)
    if (entry_less(overflow_[i], overflow_[min_idx])) min_idx = i;
  CPE_ASSERT(!overflow_.empty());
  if (overflow_[min_idx].t * inv_width_ < kMaxVirtualBucket) {
    rebuild(buckets_.size());
    return position();
  }
  // Non-finite (or astronomically far) minimum: adopt just it into the heap
  // and stretch the window up to it so earlier-timestamped future pushes
  // still join the heap ahead of it.
  cur_heap_.push_back(overflow_[min_idx]);
  overflow_[min_idx] = overflow_.back();
  overflow_.pop_back();
  std::make_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
  bucket_top_ = cur_heap_.front().t;
  return true;
}

bool CalendarQueue::sweep_bucket() {
  std::vector<Entry>& b = buckets_[static_cast<std::size_t>(vcur_) & mask_];
  if (b.empty()) return false;
  std::size_t w = 0;
  for (std::size_t r = 0; r < b.size(); ++r) {
    if (b[r].t < bucket_top_) {
      cur_heap_.push_back(b[r]);
    } else {
      b[w++] = b[r];
    }
  }
  b.resize(w);
  if (cur_heap_.empty()) return false;
  std::make_heap(cur_heap_.begin(), cur_heap_.end(), EntryAfter{});
  return true;
}

void CalendarQueue::maybe_grow() {
  if (count_ + 1 > buckets_.size() * 2) rebuild(buckets_.size() * 2);
}

void CalendarQueue::maybe_shrink() {
  if (buckets_.size() > kMinBuckets && count_ < buckets_.size() / 8)
    rebuild(buckets_.size() / 2);
}

Time CalendarQueue::estimate_width(const std::vector<Entry>& all) const {
  if (all.size() < 2) return width_;
  // Estimate the pending span from a strided sample of timestamps (cheap,
  // and min/max are robust to stride), then size the bucket width to a few
  // *true* mean inter-event gaps — span over the full population, not the
  // sample — so one window holds O(1) due entries.
  const std::size_t kSample = 64;
  const std::size_t stride = all.size() > kSample ? all.size() / kSample : 1;
  Time lo = all[0].t, hi = all[0].t;
  for (std::size_t i = 0; i < all.size(); i += stride) {
    const Time t = all[i].t;
    if (t < lo) lo = t;
    if (t > hi) hi = t;
  }
  const Time span = hi - lo;
  if (!(span > 0)) return width_;
  Time w = 3.0 * span / static_cast<Time>(all.size() - 1);
  if (w < 1e-9) w = 1e-9;
  if (w > 1e15) w = 1e15;
  return w;
}

void CalendarQueue::rebuild(std::size_t nbuckets) {
  std::vector<Entry> all;
  all.reserve(count_);
  for (std::vector<Entry>& b : buckets_) {
    all.insert(all.end(), b.begin(), b.end());
    b.clear();
  }
  all.insert(all.end(), cur_heap_.begin(), cur_heap_.end());
  cur_heap_.clear();
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();

  buckets_.resize(nbuckets);
  buckets_.shrink_to_fit();
  mask_ = nbuckets - 1;
  width_ = estimate_width(all);
  inv_width_ = 1.0 / width_;

  // Re-anchor at the earliest pending timestamp (all entries are >= engine
  // "now", so no push can ever undercut the new window).
  Time tmin = 0;
  bool have = false;
  for (const Entry& e : all) {
    if (!have || e.t < tmin) {
      tmin = e.t;
      have = true;
    }
  }
  vcur_ = have && tmin * inv_width_ < kMaxVirtualBucket ? bucket_of(tmin) : 0;
  bucket_top_ = static_cast<Time>(vcur_ + 1) * width_;

  for (const Entry& e : all) place(e);  // count_ unchanged
}

}  // namespace detail

std::uint32_t Engine::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  // Lock-step capacity: cancel() returns freed slots to this list from a
  // noexcept context, so it must never need to grow there.
  free_slots_.reserve(slots_.capacity());
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

Time Engine::past_time(Time t) const {
  CPE_EXPECTS(!std::isnan(t) && "sim::Engine event time is NaN");
  return now_;
}

EventId Engine::commit_slot(std::uint32_t slot, Time t) {
  const std::uint32_t gen = slots_[slot].gen;
  queue_.push(detail::Entry{t, next_seq_++, slot, gen});
  ++live_;
  return EventId{slot, gen};
}

void Engine::cancel(EventId id) noexcept {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || !s.fn) return;
  // Invalidate: the queue entry becomes stale and is skipped on pop or
  // removed by the next compaction.
  ++s.gen;
  s.fn.reset();
  free_slots_.push_back(id.slot);
  --live_;
  ++dead_;
  if (dead_ > live_ && dead_ > kCompactFloor) compact_queue();
}

void Engine::compact_queue() noexcept {
  queue_.retain([this](const detail::Entry& e) noexcept {
    const Slot& s = slots_[e.slot];
    return s.gen == e.gen && static_cast<bool>(s.fn);
  });
  dead_ = 0;
}

bool Engine::pending(EventId id) const noexcept {
  return id.valid() && id.slot < slots_.size() &&
         slots_[id.slot].gen == id.gen &&
         static_cast<bool>(slots_[id.slot].fn);
}

bool Engine::step() {
  rethrow_pending_failure();
  while (!queue_.empty()) {
    detail::Entry e = queue_.pop();
    Slot& s = slots_[e.slot];
    if (s.gen != e.gen || !s.fn) {  // cancelled: skip stale entry
      CPE_ASSERT(dead_ > 0);
      --dead_;
      continue;
    }
    CPE_ASSERT(e.t >= now_);
    now_ = e.t;
#if defined(__GNUC__)
    // The next event's slot was written far (in event count) before it
    // fires, so it is almost always cache-cold; start the load now and let
    // it overlap with this event's callback.
    if (const detail::Entry* h = queue_.next_hint())
      __builtin_prefetch(&slots_[h->slot]);
#endif
    // Detach the callback before running it so the callback may freely
    // schedule/cancel (including re-using this slot).
    detail::EventFn fn = std::move(s.fn);
    ++s.gen;
    free_slots_.push_back(e.slot);
    --live_;
    fn();
    rethrow_pending_failure();
    return true;
  }
  return false;
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (step()) {
    if (++n >= max_events)
      throw Error("Engine::run: event budget exhausted (livelock?)");
  }
  return n;
}

std::size_t Engine::run_until(Time t, std::size_t max_events) {
  CPE_EXPECTS(t >= now_);
  std::size_t n = 0;
  rethrow_pending_failure();
  for (;;) {
    const detail::Entry* top = queue_.peek();
    if (top == nullptr) break;
    const Slot& s = slots_[top->slot];
    if (s.gen != top->gen || !s.fn) {
      queue_.pop();
      CPE_ASSERT(dead_ > 0);
      --dead_;
      continue;
    }
    if (top->t > t) break;
    step();
    if (++n >= max_events)
      throw Error("Engine::run_until: event budget exhausted (livelock?)");
  }
  now_ = t;
  return n;
}

void Engine::rethrow_pending_failure() {
  if (failures_.empty()) return;
  std::exception_ptr e = failures_.front();
  failures_.pop_front();
  std::rethrow_exception(e);
}

}  // namespace cpe::sim
