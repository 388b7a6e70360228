// Blocking primitives for simulation coroutines: wait queues, delays,
// triggers, gates, semaphores.
//
// Every awaitable here is abort-safe: if the waiting coroutine frame is
// destroyed while suspended (task killed, process migrated away and replaced,
// simulation torn down), the awaiter's destructor deregisters from the wait
// queue and cancels any scheduled wake-up, so no dangling handle is ever
// resumed.
#pragma once

#include <coroutine>
#include <cstddef>

#include "sim/assert.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace cpe::sim {

/// Suspend the current coroutine for `dt` simulated seconds.
///   co_await Delay{eng, 1.5};
struct [[nodiscard]] Delay {
  Engine& eng;
  Time dt;

  Delay(Engine& e, Time d) : eng(e), dt(d) {}
  Delay(const Delay&) = delete;
  Delay& operator=(const Delay&) = delete;
  ~Delay() { eng.cancel(ev_); }

  [[nodiscard]] bool await_ready() const noexcept { return dt <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    ev_ = eng.schedule_in(dt, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  EventId ev_{};
};

/// An intrusive FIFO queue of suspended coroutines.  Building block for all
/// higher-level primitives; exposed because domain code (mailboxes, CPU
/// schedulers) builds its own blocking structures from it.
class WaitQueue {
 public:
  class Node {
   public:
    Node() = default;
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    ~Node() { cleanup(); }

    [[nodiscard]] bool linked() const noexcept { return queue_ != nullptr; }
    /// True when this waiter was woken with the `grant` flag (direct handoff
    /// semantics, e.g. a semaphore unit reserved for this waiter).
    [[nodiscard]] bool granted() const noexcept { return granted_; }

    /// Deregister: unlink from the queue or cancel a pending wake-up.
    void cleanup() noexcept;

   private:
    friend class WaitQueue;
    WaitQueue* queue_ = nullptr;
    Node* prev_ = nullptr;
    Node* next_ = nullptr;
    std::coroutine_handle<> handle_{};
    Engine* eng_ = nullptr;
    EventId wake_ev_{};
    bool granted_ = false;
  };

  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  /// Destroying a queue with parked waiters abandons them: their nodes are
  /// detached (so their frames can be destroyed safely later) but they are
  /// never resumed.  This situation only arises during teardown or
  /// exception unwind — asserting here would turn any in-flight exception
  /// into std::terminate.
  ~WaitQueue() {
    while (head_ != nullptr) unlink(*head_);
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Park `h`, FIFO order.  `n` must live until woken or cleaned up (it lives
  /// in the awaiter on the coroutine frame).
  void enqueue(Engine& eng, Node& n, std::coroutine_handle<> h);

  /// Wake the longest-waiting coroutine (resumes via an engine event at the
  /// current time).  Returns false when the queue is empty.
  bool wake_one(bool grant = false);

  /// Wake every parked coroutine; returns how many.
  std::size_t wake_all();

  /// Timed awaiter: park until woken or until `dt` elapses.  await_resume
  /// returns true when woken, false on timeout.
  class TimedAwaiter {
   public:
    TimedAwaiter(Engine& e, WaitQueue& q, Time dt)
        : eng_(e), q_(q), dt_(dt) {}
    TimedAwaiter(const TimedAwaiter&) = delete;
    TimedAwaiter& operator=(const TimedAwaiter&) = delete;
    ~TimedAwaiter() { eng_.cancel(timeout_ev_); }

    [[nodiscard]] bool await_ready() const noexcept { return dt_ <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      q_.enqueue(eng_, node_, h);
      timeout_ev_ = eng_.schedule_in(dt_, [this, h] {
        timed_out_ = true;
        node_.cleanup();  // leave the queue before resuming
        h.resume();
      });
    }
    [[nodiscard]] bool await_resume() noexcept {
      eng_.cancel(timeout_ev_);
      return !timed_out_;
    }

   private:
    Engine& eng_;
    WaitQueue& q_;
    Time dt_;
    Node node_;
    EventId timeout_ev_{};
    bool timed_out_ = false;
  };

  /// co_await queue.wait_for(eng, dt): true if woken before the deadline.
  [[nodiscard]] TimedAwaiter wait_for(Engine& eng, Time dt) {
    return TimedAwaiter(eng, *this, dt);
  }

  /// Basic awaiter: park until woken.
  class Awaiter {
   public:
    Awaiter(Engine& e, WaitQueue& q) : eng_(e), q_(q) {}
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      q_.enqueue(eng_, node_, h);
    }
    void await_resume() const noexcept {}

   private:
    Engine& eng_;
    WaitQueue& q_;
    Node node_;
  };

  /// co_await queue.wait(eng): park until the next wake_one/wake_all.
  [[nodiscard]] Awaiter wait(Engine& eng) { return Awaiter(eng, *this); }

 private:
  void unlink(Node& n) noexcept;

  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Broadcast event: fire() wakes everyone currently waiting.
class Trigger {
 public:
  explicit Trigger(Engine& eng) : eng_(eng) {}

  [[nodiscard]] WaitQueue::Awaiter wait() { return waiters_.wait(eng_); }
  /// Timed wait: true when fired before the deadline, false on timeout.
  [[nodiscard]] WaitQueue::TimedAwaiter wait_for(Time dt) {
    return waiters_.wait_for(eng_, dt);
  }
  std::size_t fire() { return waiters_.wake_all(); }
  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.size();
  }

 private:
  Engine& eng_;
  WaitQueue waiters_;
};

/// Level-triggered gate.  wait() passes immediately while open; while closed,
/// waiters park until open() is called.  Used e.g. to block senders to a
/// migrating MPVM task.
class Gate {
 public:
  explicit Gate(Engine& eng, bool open = true) : eng_(eng), open_(open) {}

  [[nodiscard]] bool is_open() const noexcept { return open_; }
  void close() noexcept { open_ = false; }
  void open() {
    open_ = true;
    waiters_.wake_all();
  }

  /// co_await gate.wait(): returns once the gate is (or becomes) open.
  [[nodiscard]] Co<void> wait() {
    while (!open_) co_await waiters_.wait(eng_);
  }

 private:
  Engine& eng_;
  bool open_;
  WaitQueue waiters_;
};

/// Counting semaphore with FIFO direct handoff (no barging): a released unit
/// is reserved for the longest waiter.  A Semaphore with count 1 models a
/// serially-reusable resource such as a shared Ethernet medium.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t initial)
      : eng_(eng), available_(initial) {}

  [[nodiscard]] std::size_t available() const noexcept { return available_; }

  [[nodiscard]] Co<void> acquire() {
    if (available_ > 0 && waiters_.empty()) {
      --available_;
      co_return;
    }
    Acquire aw(eng_, waiters_);
    co_await aw;
  }

  void release() {
    // Direct handoff: hand the unit to the longest waiter, if any.
    if (!waiters_.wake_one(/*grant=*/true)) ++available_;
  }

 private:
  struct Acquire {
    Acquire(Engine& e, WaitQueue& q) : eng_(e), q_(q) {}
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      q_.enqueue(eng_, node_, h);
    }
    void await_resume() const { CPE_ASSERT(node_.granted()); }
    Engine& eng_;
    WaitQueue& q_;
    WaitQueue::Node node_;
  };

  Engine& eng_;
  std::size_t available_;
  WaitQueue waiters_;
};

/// RAII helper that runs a callable on scope exit (Core Guidelines E.19).
template <class F>
class [[nodiscard]] ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() {
    if (armed_) f_();
  }
  void dismiss() noexcept { armed_ = false; }

 private:
  F f_;
  bool armed_ = true;
};

}  // namespace cpe::sim
