#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>

namespace bm::sim {

void Process::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<Process::promise_type> h) noexcept {
  Simulation* sim = h.promise().sim;
  if (sim != nullptr) {
    sim->retire(h);
  }
  // If the process was never spawned it is still owned by its Process
  // wrapper, which will destroy it.
}

Simulation::~Simulation() {
  // Destroy any processes still suspended mid-simulation.
  for (void* address : live_processes_) {
    std::coroutine_handle<>::from_address(address).destroy();
  }
}

EventId Simulation::schedule(Time delay, std::function<void()> fn) {
  assert(delay >= 0);
  const EventId id = next_id_++;
  queue_.push(Event{now_ + delay, id, std::move(fn)});
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  return id;
}

void Simulation::cancel(EventId id) { cancelled_.insert(id); }

void Simulation::spawn(Process process) {
  Process::Handle h = process.handle_;
  process.handle_ = {};  // ownership moves to the simulation
  h.promise().sim = this;
  live_processes_.insert(h.address());
  schedule(0, [h] { h.resume(); });
}

void Simulation::retire(Process::Handle h) {
  live_processes_.erase(h.address());
  h.destroy();
}

bool Simulation::step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    assert(ev.at >= now_);
    now_ = ev.at;
    ++events_executed_;
    ev.fn();
    return true;
  }
  return false;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(Time deadline) {
  for (;;) {
    // Peek (skipping cancelled events) to respect the deadline.
    while (!queue_.empty() && cancelled_.count(queue_.top().id)) {
      cancelled_.erase(queue_.top().id);
      queue_.pop();
    }
    if (queue_.empty() || queue_.top().at > deadline) break;
    step();
  }
  // Advance the clock to the deadline even when idle, so repeated
  // run_until(now() + dt) calls make progress toward future timers.
  now_ = std::max(now_, deadline);
}

void Trigger::fire(int code) {
  code_ = code;
  if (waiter_) {
    auto h = waiter_;
    waiter_ = {};
    sim_.resume_later(h);
  } else {
    fired_ = true;  // latch for a future wait()
  }
}

}  // namespace bm::sim
