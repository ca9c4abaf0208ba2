// Open-loop arrival processes for the client-serving front end
// (docs/SERVING.md).
//
// The closed-loop driver (FabricNetworkHarness::next_block) measures
// capacity: it issues the next transaction only after the previous block
// committed, so the system is never offered more than it can absorb. Real
// clients do not wait — requests arrive on their own clock whether or not
// the peer keeps up, which is what exposes the throughput-vs-latency
// hockey stick and the overload behaviour the bottleneck studies (Wang &
// Chu) measure. Two processes cover the load shapes the shipped scenarios
// run:
//
//   - Poisson: memoryless steady load, the M in M/M/c — exponential
//     interarrivals at a fixed rate;
//   - MMPP: a two-phase Markov-modulated Poisson process — calm/burst
//     alternation with per-arrival phase switching, the classic model of
//     correlated client bursts (flash crowds, retry storms).
//
// Deterministic like net/faults: the schedule is a pure function of
// (config, seed) — two generators with the same config emit byte-identical
// arrival sequences, independent of what the pipeline does with them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace bm::serve {

enum class ArrivalProcess { kPoisson, kMmpp };

struct TrafficConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;

  /// Poisson: the rate. MMPP: the calm-phase rate. Transactions per second
  /// of simulated time.
  double rate_tps = 1000.0;

  // --- MMPP ----------------------------------------------------------------
  /// Burst-phase rate; 0 defaults to 4x rate_tps.
  double burst_rate_tps = 0.0;
  /// Per-arrival phase-switch probabilities. The embedded chain's
  /// stationary burst occupancy is p_enter / (p_enter + p_exit).
  double p_enter_burst = 0.05;
  double p_exit_burst = 0.25;

  std::uint64_t seed = 1;
};

/// Generates one arrival schedule. Each generator owns its rng, so the
/// schedule never interleaves with other random draws.
class TrafficGenerator {
 public:
  explicit TrafficGenerator(const TrafficConfig& config);

  /// Absolute simulated time of the next arrival (monotone non-decreasing).
  sim::Time next_arrival();

  /// Drain arrivals up to and including `horizon` into a vector. Consumes
  /// the generator's state like repeated next_arrival() calls.
  std::vector<sim::Time> schedule(sim::Time horizon);

  bool in_burst() const { return burst_; }
  std::uint64_t arrivals() const { return arrivals_; }
  /// Arrivals emitted while the MMPP chain sat in the burst phase.
  std::uint64_t burst_arrivals() const { return burst_arrivals_; }

 private:
  /// One exponential interarrival gap at `rate_tps`, in simulated ns.
  sim::Time exponential(double rate_tps);

  TrafficConfig config_;
  Rng rng_;
  sim::Time now_ = 0;
  bool burst_ = false;
  std::uint64_t arrivals_ = 0;
  std::uint64_t burst_arrivals_ = 0;
};

/// Deterministic client-population mix for session-aware runs: maps each
/// arrival to a client index (optionally Zipf-skewed, so a hot minority of
/// sessions dominates traffic) and each client to a rate class. Owns its
/// own rng, decorrelated from the arrival schedule, so enabling sessions
/// never perturbs arrival times.
class SessionMix {
 public:
  SessionMix(std::size_t population, double zipf_s, int rate_classes,
             double high_priority_share, std::uint64_t seed);

  /// Client index of the next arrival, in [0, population).
  std::size_t next_client();

  /// Stable client -> rate class mapping: the first
  /// high_priority_share * population clients are class 0 (and, under Zipf
  /// skew, also the hottest); the rest round-robin classes 1..N-1.
  int rate_class_of(std::size_t client) const;

  std::size_t population() const { return population_; }

 private:
  std::size_t population_;
  int rate_classes_;
  std::size_t high_priority_clients_;
  Zipf zipf_;
  Rng rng_;
};

}  // namespace bm::serve
