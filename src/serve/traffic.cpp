#include "serve/traffic.hpp"

#include <cmath>

namespace bm::serve {

TrafficGenerator::TrafficGenerator(const TrafficConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.rate_tps <= 0) config_.rate_tps = 1.0;
  if (config_.burst_rate_tps <= 0)
    config_.burst_rate_tps = 4.0 * config_.rate_tps;
}

sim::Time TrafficGenerator::exponential(double rate_tps) {
  // Inverse-CDF: gap = -ln(1-u)/rate. uniform_double() is in [0,1), so
  // 1-u is in (0,1] and the log is finite.
  const double u = rng_.uniform_double();
  const double seconds = -std::log(1.0 - u) / rate_tps;
  return static_cast<sim::Time>(seconds * static_cast<double>(sim::kSecond));
}

sim::Time TrafficGenerator::next_arrival() {
  switch (config_.process) {
    case ArrivalProcess::kPoisson:
      now_ += exponential(config_.rate_tps);
      break;
    case ArrivalProcess::kMmpp: {
      // The arrival is drawn at the current phase's rate; the chain then
      // takes one per-arrival transition step.
      now_ += exponential(burst_ ? config_.burst_rate_tps : config_.rate_tps);
      if (burst_) burst_arrivals_ += 1;
      const double flip = rng_.uniform_double();
      if (burst_ ? flip < config_.p_exit_burst
                 : flip < config_.p_enter_burst)
        burst_ = !burst_;
      break;
    }
  }
  arrivals_ += 1;
  return now_;
}

std::vector<sim::Time> TrafficGenerator::schedule(sim::Time horizon) {
  std::vector<sim::Time> arrivals;
  for (;;) {
    const sim::Time at = next_arrival();
    if (at > horizon) break;
    arrivals.push_back(at);
  }
  return arrivals;
}

SessionMix::SessionMix(std::size_t population, double zipf_s,
                       int rate_classes, double high_priority_share,
                       std::uint64_t seed)
    : population_(population > 0 ? population : 1),
      rate_classes_(rate_classes > 0 ? rate_classes : 1),
      high_priority_clients_(static_cast<std::size_t>(
          high_priority_share * static_cast<double>(population_))),
      zipf_(population_, zipf_s),
      rng_(seed) {
  if (high_priority_clients_ > population_)
    high_priority_clients_ = population_;
}

std::size_t SessionMix::next_client() {
  return static_cast<std::size_t>(zipf_.sample(rng_));
}

int SessionMix::rate_class_of(std::size_t client) const {
  if (client < high_priority_clients_) return 0;
  if (rate_classes_ <= 1) return 0;
  return 1 + static_cast<int>(client % static_cast<std::size_t>(
                                           rate_classes_ - 1));
}

}  // namespace bm::serve
