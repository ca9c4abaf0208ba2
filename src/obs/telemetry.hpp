// Continuous-telemetry bundle: one object that wires the time-series
// sampler, SLO burn-rate monitor and flight recorder into a run.
//
// The tool/bench binaries configure a Telemetry from cli::CommonFlags
// (--sample-interval / --timeseries-out / --slo-out / --flight-out) and
// the run's scenario "slo" section, attach() it to the run's Simulation + Registry before the
// clock starts, finish() it before the Simulation is destroyed (the sampler
// and monitor hold recurring events on the sim), and write() the artifacts
// afterwards. Each driver hands attach() the function it calls for its
// end-of-run metrics snapshot; the sampler and monitor call it before
// every sample and evaluation, so every counter and gauge is declared once,
// in its component's publish_metrics, and the time series carries every
// series the snapshot does. The SLO monitor's first fire automatically
// triggers the flight-recorder post-mortem, so an alert always comes with
// the event window that led up to it.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace bm::obs {

class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Read the telemetry flags plus the SLO rules of the run's composed
  /// scenario, if it has an "slo" section. With no telemetry flag and no
  /// scenario rules the bundle stays disabled; attach() is then a no-op.
  void configure(const cli::CommonFlags& flags,
                 std::optional<SloConfig> scenario_slo);

  /// Programmatic configuration (benches/tests): enable with an in-memory
  /// SLO config and sampling interval, writing no artifact files. Read the
  /// results back through sampler()/slo()/flight() after finish().
  void configure(TimeSeriesConfig sampler_config,
                 std::optional<SloConfig> slo_config);

  bool enabled() const { return enabled_; }

  /// Create the instruments for this run and start the recurring sampling /
  /// evaluation events. Call before the simulation runs. Re-attaching
  /// replaces the previous run's instruments. `refresh` publishes the run's
  /// current counters and gauges into `registry` (set only: no observe, no
  /// scheduling); it runs before every sample and evaluation and must stay
  /// callable until finish().
  void attach(sim::Simulation& sim, Registry& registry, Tracer* tracer,
              std::function<void()> refresh);

  /// Take one final sample + evaluation at the current sim time and cancel
  /// the recurring events. MUST be called while the Simulation attached to
  /// is still alive; idempotent.
  void finish();

  /// Write the requested artifacts (time-series JSON/CSV, SLO alert log,
  /// flight ring when it was never trigger-dumped). Returns 0 on success,
  /// 1 on any write failure. Prints one confirmation line per file.
  int write() const;

  // Null when disabled / not attached.
  TimeSeriesSampler* sampler() { return sampler_.get(); }
  SloMonitor* slo() { return slo_.get(); }
  FlightRecorder* flight() { return flight_.get(); }

 private:
  bool enabled_ = false;
  TimeSeriesConfig sampler_config_;
  std::optional<SloConfig> slo_config_;
  std::string timeseries_out_, timeseries_csv_;
  std::string slo_out_, flight_out_;

  std::unique_ptr<TimeSeriesSampler> sampler_;
  std::unique_ptr<SloMonitor> slo_;
  std::unique_ptr<FlightRecorder> flight_;
  bool finished_ = true;
};

}  // namespace bm::obs
