// Continuous sim-time sampling of a metrics Registry into columnar series.
//
// PR 1's Registry answers "what were the totals at the end of the run"; the
// sampler answers "when did they move". A TimeSeriesSampler is scheduled on
// the discrete-event simulation and, every `interval` of simulated time,
// calls the run's refresh callback (each component's publish_metrics, the
// same function that writes the end-of-run snapshot) and then snapshots
// every counter, gauge and histogram count/sum pair into aligned columns —
// the software analogue of the host reading the paper's block_monitor
// registers (§4.1) on a fixed poll loop. Counters additionally get a
// derived per-second rate column at serialization time, so a plot of
// goodput or shed rate needs no post-processing.
//
// Determinism: ticks are simulated-time events (never wall clock), series
// serialize in name order, and numbers use the registry's round-trip
// formatter — two same-seed runs emit byte-identical JSON/CSV artifacts.
// Metrics that first appear mid-run are backfilled with zeros so every
// column has exactly one value per sample.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace bm::obs {

struct TimeSeriesConfig {
  /// Simulated time between samples.
  sim::Time interval = 10 * sim::kMillisecond;
};

class TimeSeriesSampler {
 public:
  /// The registry is read-only from the sampler's point of view; the
  /// simulation drives the tick schedule. `refresh` (may be empty) runs
  /// before every sample so the components publish their current values;
  /// it must stay callable until the last sample_now()/stop().
  TimeSeriesSampler(sim::Simulation& sim, const Registry& registry,
                    TimeSeriesConfig config, std::function<void()> refresh);

  /// Take a baseline sample now and schedule a tick every `interval` until
  /// stop(). Call before running the simulation.
  void start();

  /// Cancel the pending tick. Safe to call repeatedly; must be called
  /// before the bound Simulation is destroyed.
  void stop();

  /// Refresh, then take one sample at the current simulated time (also
  /// used for the final "end of run" column). Histograms become two counter
  /// columns, <name>_count and <name>_sum. Duplicate timestamps are
  /// collapsed: a second sample at the same sim time is skipped, refresh
  /// included.
  void sample_now();

  std::size_t sample_count() const { return at_.size(); }
  std::size_t series_count() const { return series_.size(); }
  const std::vector<sim::Time>& sample_times() const { return at_; }

  /// Raw column for one metric (empty when never sampled); values align
  /// with sample_times().
  std::vector<double> values(const std::string& name) const;

  /// Derived per-second rate column for a counter-kind series: element i is
  /// (v[i] - v[i-1]) / dt_seconds, with element 0 measured from (t=0, v=0).
  std::vector<double> rates(const std::string& name) const;

  /// Columnar JSON artifact: schema_version, interval, at_ns plus one
  /// entry per series with values (and rate_per_s for counters).
  std::string to_json() const;
  /// CSV artifact: header "at_ns,<names...>" (sorted), one row per sample.
  std::string to_csv() const;

  bool write_json(const std::string& path) const;
  bool write_csv(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge };
  struct Series {
    Kind kind = Kind::kGauge;
    std::vector<double> values;
  };

  void record(const std::string& name, Kind kind, double value);
  void tick();

  sim::Simulation& sim_;
  const Registry& registry_;
  TimeSeriesConfig config_;
  std::function<void()> refresh_;
  std::vector<sim::Time> at_;
  std::map<std::string, Series> series_;  ///< sorted => deterministic output
  sim::EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace bm::obs
