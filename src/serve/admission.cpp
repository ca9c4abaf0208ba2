#include "serve/admission.hpp"

#include <algorithm>

namespace bm::serve {

AdmissionQueue::AdmissionQueue(AdmissionConfig config)
    : config_(config) {
  config_.classes = std::max(1, config_.classes);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.pressure_refill_factor =
      std::clamp(config_.pressure_refill_factor, 0.0, 1.0);
  if (config_.bucket_capacity < 1.0) config_.bucket_capacity = 1.0;
  queues_.resize(static_cast<std::size_t>(config_.classes));
  tokens_ = config_.bucket_capacity;  // start full: allow an initial burst
}

double AdmissionQueue::refill_rate() const {
  if (config_.token_rate_tps <= 0) return 0;
  return pressure_ ? config_.token_rate_tps * config_.pressure_refill_factor
                   : config_.token_rate_tps;
}

void AdmissionQueue::refill(sim::Time now) {
  if (config_.token_rate_tps <= 0) return;
  if (now <= last_refill_) return;
  const double elapsed_s = static_cast<double>(now - last_refill_) /
                           static_cast<double>(sim::kSecond);
  tokens_ = std::min(config_.bucket_capacity,
                     tokens_ + elapsed_s * refill_rate());
  last_refill_ = now;
}

std::size_t AdmissionQueue::class_cap(int klass) const {
  // Class 0 may fill the whole queue; class c only the first
  // capacity >> c slots, so lower priorities shed earlier.
  return std::max<std::size_t>(1, config_.queue_capacity >> klass);
}

AdmissionDecision AdmissionQueue::offer(std::uint64_t id, int klass,
                                        sim::Time now, SessionId session) {
  stats_.offered += 1;
  klass = std::clamp(klass, 0, config_.classes - 1);
  refill(now);

  AdmissionDecision decision;
  // Guard both retry-after hints against a zero refill rate: with
  // pressure_refill_factor == 0 the bucket stops refilling entirely while
  // pressure is on, and dividing by it would cast inf to sim::Time (UB).
  // Fall back to the unthrottled one-millisecond hint instead.
  const double rate = refill_rate();
  if (depth() >= class_cap(klass)) {
    stats_.shed_queue_full += 1;
    decision.result = AdmitResult::kOverloaded;
    // The queue drains at (at most) the token rate; hint one slot's worth,
    // or a millisecond when unthrottled (capacity-bound, drain unknown).
    decision.retry_after =
        rate > 0 ? static_cast<sim::Time>(static_cast<double>(sim::kSecond) /
                                          rate)
                 : sim::kMillisecond;
    return decision;
  }
  if (config_.token_rate_tps > 0 && tokens_ < 1.0) {
    stats_.shed_rate_limited += 1;
    decision.result = AdmitResult::kOverloaded;
    decision.retry_after =
        rate > 0 ? static_cast<sim::Time>((1.0 - tokens_) / rate *
                                          static_cast<double>(sim::kSecond))
                 : sim::kMillisecond;
    return decision;
  }

  if (config_.token_rate_tps > 0) tokens_ -= 1.0;
  queues_[static_cast<std::size_t>(klass)].push_back(
      AdmittedRequest{id, klass, now, session});
  stats_.admitted += 1;
  stats_.depth_high_water = std::max(stats_.depth_high_water, depth());
  return decision;
}

std::optional<AdmittedRequest> AdmissionQueue::pop() {
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    AdmittedRequest request = queue.front();
    queue.pop_front();
    return request;
  }
  return std::nullopt;
}

std::size_t AdmissionQueue::depth() const {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue.size();
  return total;
}

void AdmissionQueue::set_pressure(bool on, sim::Time now) {
  if (on == pressure_) return;
  // Settle the bucket at the old rate before switching.
  refill(now);
  pressure_ = on;
  if (on) stats_.pressure_raised += 1;
}

void AdmissionQueue::publish_metrics(obs::Registry& registry,
                                     const std::string& prefix) const {
  registry.counter(prefix + "_offered_total", "requests offered")
      .set(stats_.offered);
  registry.counter(prefix + "_admitted_total", "requests admitted")
      .set(stats_.admitted);
  registry
      .counter(prefix + "_shed_queue_full_total",
               "requests shed: queue or class share exhausted")
      .set(stats_.shed_queue_full);
  registry
      .counter(prefix + "_shed_rate_limited_total",
               "requests shed: token bucket empty")
      .set(stats_.shed_rate_limited);
  registry
      .counter(prefix + "_shed_total", "requests shed, any reason")
      .set(stats_.shed_total());
  registry
      .counter(prefix + "_pressure_raised_total",
               "downstream pressure off->on transitions")
      .set(stats_.pressure_raised);
  registry.gauge(prefix + "_depth", "requests queued right now")
      .set(static_cast<double>(depth()));
  registry
      .gauge(prefix + "_depth_high_water",
             "most requests ever queued at once")
      .set(static_cast<double>(stats_.depth_high_water));
}

}  // namespace bm::serve
