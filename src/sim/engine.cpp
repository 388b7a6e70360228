#include "sim/engine.hpp"

#include <cmath>
#include <utility>

namespace cpe::sim {

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
    if (const detail::Entry* h = queue_.peek())
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
