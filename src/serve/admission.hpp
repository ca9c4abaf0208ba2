// Bounded admission control in front of the endorsement stage
// (docs/SERVING.md).
//
// The overload discipline: a request is either admitted into a bounded
// queue or refused *immediately* with kOverloaded and a retry-after hint —
// nothing queues unboundedly, so offered load beyond capacity turns into
// explicit shedding instead of congestion collapse. Three mechanisms
// compose:
//
//   - a token bucket caps the sustained admit rate (bucket depth = burst
//     allowance), refilled on the simulated clock;
//   - per-class priorities: class 0 (highest) may fill the whole queue,
//     class c only the first capacity>>c slots, so low-priority traffic
//     sheds first as the queue deepens; pop() drains strictly by class;
//   - downstream pressure: when the orderer-ingress / commit backlog
//     crosses its high watermark, the token refill slows by
//     pressure_refill_factor until the low watermark releases it — the
//     queue-depth feedback loop into the rate limiter.
//
// Deterministic: decisions depend only on (config, call sequence,
// simulated time) — no randomness, no wall clock.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace bm::serve {

enum class AdmitResult : std::uint8_t {
  kAdmitted = 0,
  /// Shed: queue (or class share, or token bucket) exhausted. The request
  /// never enters the pipeline; retry_after tells the client when capacity
  /// is expected back (the HTTP 503 Retry-After of this front end).
  kOverloaded,
};

struct AdmissionDecision {
  AdmitResult result = AdmitResult::kAdmitted;
  sim::Time retry_after = 0;  ///< meaningful when kOverloaded

  bool admitted() const { return result == AdmitResult::kAdmitted; }
};

struct AdmissionConfig {
  std::size_t queue_capacity = 512;  ///< total slots, all classes
  /// Token bucket: sustained admit rate in tx/s; 0 disables rate limiting.
  double token_rate_tps = 0.0;
  double bucket_capacity = 128.0;  ///< burst allowance, in tokens
  int classes = 2;                 ///< priority classes; 0 = highest
  /// Refill-rate multiplier while downstream pressure is on, in (0,1].
  double pressure_refill_factor = 0.25;
};

struct AdmissionStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue_full = 0;    ///< queue (or class share) exhausted
  std::uint64_t shed_rate_limited = 0;  ///< token bucket empty
  std::size_t depth_high_water = 0;
  std::uint64_t pressure_raised = 0;  ///< off->on transitions

  std::uint64_t shed_total() const {
    return shed_queue_full + shed_rate_limited;
  }
};

/// Session handle threaded through the pipeline; the full definition lives
/// in serve/session.hpp (same alias — (generation << 32) | slot, 0 = none).
using SessionId = std::uint64_t;

/// One admitted request waiting for an endorsement worker.
struct AdmittedRequest {
  std::uint64_t id = 0;
  int klass = 0;
  sim::Time arrived = 0;
  SessionId session = 0;  ///< owning session; 0 for anonymous arrivals
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config);

  /// Admit-or-shed decision for a request arriving at `now`. `session`
  /// rides along into the AdmittedRequest so downstream stages can account
  /// per session / rate class.
  AdmissionDecision offer(std::uint64_t id, int klass, sim::Time now,
                          SessionId session = 0);

  /// Highest-priority waiting request, or nullopt when empty.
  std::optional<AdmittedRequest> pop();

  std::size_t depth() const;

  /// Downstream watermark feedback (idempotent per state).
  void set_pressure(bool on, sim::Time now);
  bool pressure() const { return pressure_; }

  const AdmissionStats& stats() const { return stats_; }
  const AdmissionConfig& config() const { return config_; }

  /// Snapshot the counters and the current depth under "<prefix>_..."
  /// (idempotent; the telemetry sampler calls it before every sample).
  void publish_metrics(obs::Registry& registry,
                       const std::string& prefix) const;

 private:
  void refill(sim::Time now);
  double refill_rate() const;
  std::size_t class_cap(int klass) const;

  AdmissionConfig config_;
  std::vector<std::deque<AdmittedRequest>> queues_;  ///< one per class
  double tokens_ = 0;
  sim::Time last_refill_ = 0;
  bool pressure_ = false;
  AdmissionStats stats_;
};

}  // namespace bm::serve
