// Discrete-event simulation kernel.
//
// The BMac hardware model (§3.2-3.3) and the network model are expressed as
// communicating sequential processes: each hardware module is a C++20
// coroutine that blocks on bounded FIFOs (sim::Fifo) and advances simulated
// time with sim::Simulation::delay(). The kernel is single-threaded and
// fully deterministic: events at equal timestamps run in schedule order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

namespace bm::sim {

/// Simulated time in nanoseconds.
using Time = std::int64_t;

constexpr Time kNanosecond = 1;
constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1'000'000;
constexpr Time kSecond = 1'000'000'000;

class Simulation;

/// Fire-and-forget coroutine type for simulation processes. Created by
/// calling a coroutine function and handed to Simulation::spawn(), which
/// takes ownership of the frame.
class [[nodiscard]] Process {
 public:
  struct promise_type {
    Simulation* sim = nullptr;

    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    /// On completion, hand the frame back to the Simulation for destruction
    /// (the coroutine is suspended here, so destroying it is legal).
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Process(Process&& other) noexcept : handle_(other.handle_) {
    other.handle_ = {};
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;
  ~Process() {
    if (handle_) handle_.destroy();  // never spawned
  }

 private:
  friend class Simulation;
  explicit Process(Handle h) : handle_(h) {}
  Handle handle_;
};

/// Identifier for a scheduled event; used for cancellation.
using EventId = std::uint64_t;

class Simulation {
 public:
  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }

  /// Schedule a callback `delay` ns from now. Returns an id for cancel().
  EventId schedule(Time delay, std::function<void()> fn);

  /// Cancel a pending event; a no-op if it already ran or was cancelled.
  void cancel(EventId id);

  /// Start a process; it first runs at the current time, after the caller
  /// returns to the event loop (or at run() start).
  void spawn(Process process);

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until no events remain. With processes blocked only on empty
  /// FIFOs, this means "until the system drains".
  void run();

  /// Run until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still run).
  void run_until(Time deadline);

  /// Awaitable that resumes the calling process after `d` ns.
  auto delay(Time d) {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return d <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Number of events executed so far (for tests / statistics).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Most entries the event queue ever held at once (cheap counter kept by
  /// schedule(); cancelled-but-unpopped events count while queued).
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Internal: resume a coroutine through the event queue at the current
  /// time (keeps resumption ordering deterministic and stacks shallow).
  void resume_later(std::coroutine_handle<> h) {
    schedule(0, [h] { h.resume(); });
  }

  /// Internal: called by process frames when they finish.
  void retire(Process::Handle h);

 private:
  struct Event {
    Time at;
    EventId id;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // FIFO among same-time events
    }
  };

  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::unordered_set<EventId> cancelled_;
  std::unordered_set<void*> live_processes_;
};

/// Awaitable one-shot signal carrying a small enum-like payload. One waiter
/// at a time; fire() before wait() completes immediately.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(sim) {}

  /// Fire with a code; resumes the waiter (now, via the event queue).
  void fire(int code);

  bool fired() const { return fired_; }

  auto wait() {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return t->fired_; }
      void await_suspend(std::coroutine_handle<> h) { t->waiter_ = h; }
      int await_resume() noexcept {
        t->fired_ = false;  // auto-reset for reuse
        return t->code_;
      }
    };
    return Awaiter{this};
  }

 private:
  Simulation& sim_;
  std::coroutine_handle<> waiter_;
  bool fired_ = false;
  int code_ = 0;
};

}  // namespace bm::sim
