#include "obs/telemetry.hpp"

#include <cstdio>

namespace bm::obs {

void Telemetry::configure(const cli::CommonFlags& flags,
                          std::optional<SloConfig> scenario_slo) {
  slo_config_ = std::move(scenario_slo);
  sampler_config_ = TimeSeriesConfig{};
  if (flags.sample_interval_ms > 0)
    sampler_config_.interval = static_cast<sim::Time>(
        flags.sample_interval_ms * static_cast<double>(sim::kMillisecond));
  timeseries_out_ = flags.timeseries_out;
  timeseries_csv_ = flags.timeseries_csv;
  slo_out_ = flags.slo_out;
  flight_out_ = flags.flight_out;
  enabled_ = flags.wants_telemetry() || slo_config_.has_value();
}

void Telemetry::configure(TimeSeriesConfig sampler_config,
                          std::optional<SloConfig> slo_config) {
  enabled_ = true;
  sampler_config_ = std::move(sampler_config);
  slo_config_ = std::move(slo_config);
  timeseries_out_.clear();
  timeseries_csv_.clear();
  slo_out_.clear();
  flight_out_.clear();
}

void Telemetry::attach(sim::Simulation& sim, Registry& registry,
                       Tracer* tracer, std::function<void()> refresh) {
  if (!enabled_) return;
  finish();  // stop a previous run's instruments before replacing them

  flight_ = std::make_unique<FlightRecorder>(sim);
  if (!flight_out_.empty()) flight_->arm(flight_out_);

  sampler_ = std::make_unique<TimeSeriesSampler>(sim, registry,
                                                 sampler_config_, refresh);
  if (slo_config_) {
    slo_ = std::make_unique<SloMonitor>(sim, registry, *slo_config_,
                                        std::move(refresh));
    if (tracer != nullptr) {
      const int lane = tracer->lane("slo_monitor");
      slo_->set_tracer(tracer, lane);
    }
    // First SLO fire freezes the flight recorder: the post-mortem shows the
    // transaction lifecycle window that preceded the alert.
    FlightRecorder* flight = flight_.get();
    slo_->set_alert_hook([flight](const SloAlert& alert) {
      if (alert.firing) flight->trigger("slo:" + alert.rule);
    });
    slo_->start();
  } else {
    slo_.reset();
  }
  sampler_->start();
  finished_ = false;
}

void Telemetry::finish() {
  if (finished_) return;
  finished_ = true;
  if (sampler_) {
    sampler_->sample_now();
    sampler_->stop();
  }
  if (slo_) {
    slo_->evaluate_now();
    slo_->stop();
  }
}

int Telemetry::write() const {
  if (!enabled_) return 0;
  if (sampler_ && !timeseries_out_.empty()) {
    if (!sampler_->write_json(timeseries_out_)) {
      std::fprintf(stderr, "cannot write %s\n", timeseries_out_.c_str());
      return 1;
    }
    std::printf("timeseries: %s (%zu samples, %zu series)\n",
                timeseries_out_.c_str(), sampler_->sample_count(),
                sampler_->series_count());
  }
  if (sampler_ && !timeseries_csv_.empty()) {
    if (!sampler_->write_csv(timeseries_csv_)) {
      std::fprintf(stderr, "cannot write %s\n", timeseries_csv_.c_str());
      return 1;
    }
    std::printf("timeseries (csv): %s\n", timeseries_csv_.c_str());
  }
  if (slo_ && !slo_out_.empty()) {
    if (!slo_->write_json(slo_out_)) {
      std::fprintf(stderr, "cannot write %s\n", slo_out_.c_str());
      return 1;
    }
    std::printf("slo alerts: %s (%llu fires, %llu clears)\n", slo_out_.c_str(),
                static_cast<unsigned long long>(slo_->fires()),
                static_cast<unsigned long long>(slo_->clears()));
  }
  if (flight_ && !flight_out_.empty()) {
    if (flight_->triggered()) {
      // The post-mortem was frozen and written at first trigger; leave it.
      std::printf("flight: %s (triggered: %s)\n", flight_out_.c_str(),
                  flight_->trigger_reason().c_str());
    } else {
      if (!flight_->write_json(flight_out_)) {
        std::fprintf(stderr, "cannot write %s\n", flight_out_.c_str());
        return 1;
      }
      std::printf("flight: %s (no trigger, %zu events buffered)\n",
                  flight_out_.c_str(), flight_->size());
    }
  }
  return 0;
}

}  // namespace bm::obs
