// Declarative SLO rule engine with multi-window burn-rate alerting,
// evaluated continuously on simulated time.
//
// Rules are JSON-configured (configs/slo_default.json) expressions over
// metrics in a Registry, evaluated every `evaluation_interval` of sim time
// (after the run's refresh callback has published current values) against
// rolling windows of prior samples:
//
//   ratio             bad/total counter-delta ratio, alarmed as an
//                     error-budget burn rate: burn = (Δbad/Δtotal)/objective.
//                     Fires when burn >= burn_rate on EVERY configured
//                     window — the classic fast+slow multi-window alert
//                     (short window catches the spike, long window keeps
//                     one noisy tick from paging).
//   rate_above        counter delta per second >= threshold on every window.
//   gauge_above       gauge >= threshold for an entire window (sustained,
//                     not instantaneous).
//   latency_quantile  windowed histogram-bucket deltas, interpolated
//                     quantile >= threshold on every window.
//
// Every firing (and clearing) is recorded at its sim timestamp, published
// into the Registry (slo_alerts_fired_total, slo_alert_<rule>_fired_total,
// slo_alerts_active) and emitted as a Chrome-trace instant event, so alerts
// line up against the pipeline spans in Perfetto. An alert hook lets the
// flight recorder dump a post-mortem at first fire. Everything is driven by
// simulated time: same seed, same alert log, byte for byte.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace bm::config {
class Section;
}

namespace bm::obs {

enum class SloRuleKind : std::uint8_t {
  kRatio,
  kRateAbove,
  kGaugeAbove,
  kLatencyQuantile,
};

/// Stable name used in config files and artifacts.
std::string_view slo_rule_kind_name(SloRuleKind kind);

struct SloRule {
  std::string name;
  SloRuleKind kind = SloRuleKind::kRatio;
  std::string metric;       ///< counter / gauge / histogram, per kind
  std::string denominator;  ///< ratio only: the "total" counter
  /// ratio: allowed bad fraction (the SLO objective, e.g. 0.05);
  /// rate_above / gauge_above: the threshold;
  /// latency_quantile: the latency bound, in the histogram's unit.
  double threshold = 0;
  double quantile = 0.99;     ///< latency_quantile only
  double burn_rate = 1.0;     ///< ratio only: fire at this budget burn
  std::uint64_t min_count = 1;  ///< ratio/latency: ignore near-empty windows
  /// Rolling windows (sim time). Multi-window semantics: the rule fires
  /// only when the condition holds on every window simultaneously.
  std::vector<sim::Time> windows;
};

struct SloConfig {
  std::string name = "slo";
  sim::Time evaluation_interval = 10 * sim::kMillisecond;
  std::vector<SloRule> rules;
};

/// Load an SLO config file (--slo-config) from disk. Malformed rules and
/// unknown keys fail loudly with an error message naming their path.
std::optional<SloConfig> load_slo_config(const std::string& path,
                                         std::string* error = nullptr);

namespace detail {
/// Section-level parser shared with the composed --scenario loader: same
/// schema whether the rules sit in their own slo_*.json file or under a
/// scenario file's "slo" section. Errors land in the section's sink; the
/// caller checks its config::Root.
SloConfig parse_slo_section(const bm::config::Section& root);
}  // namespace detail

/// One state transition of one rule. `value` is the measured quantity on
/// the shortest window at the transition (burn rate for ratio rules).
struct SloAlert {
  std::string rule;
  sim::Time at = 0;
  bool firing = false;  ///< true = fired, false = cleared
  double value = 0;
};

class SloMonitor {
 public:
  /// The monitor reads metric values from `registry` and also publishes its
  /// own alert counters back into it. `refresh` (may be empty) runs before
  /// the baseline and every evaluation so the components publish their
  /// current values; it must stay callable until stop().
  SloMonitor(sim::Simulation& sim, Registry& registry, SloConfig config,
             std::function<void()> refresh);

  /// Emit alert instants on this tracer lane (optional).
  void set_tracer(Tracer* tracer, int lane);
  /// Called on every transition, fire and clear (flight-recorder trigger).
  void set_alert_hook(std::function<void(const SloAlert&)> hook);

  /// Take a baseline sample and evaluate every `evaluation_interval` until
  /// stop(). Call before running the simulation.
  void start();
  void stop();
  /// Refresh, then one evaluation pass at the current sim time (also used
  /// by tests).
  void evaluate_now();

  const SloConfig& config() const { return config_; }
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  std::uint64_t fires() const { return fires_; }
  std::uint64_t clears() const { return clears_; }
  std::size_t active() const;

  /// Sim time of the first fire of `rule` (any rule when empty); nullopt
  /// when it never fired — the detection-latency probe of fig_slo_detect.
  std::optional<sim::Time> first_fire(const std::string& rule = "") const;

  /// Alert-log JSON artifact (schema_version, rules, transitions).
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Sample {
    sim::Time at = 0;
    double a = 0;                       ///< metric value (num / gauge / rate)
    double b = 0;                       ///< denominator value (ratio)
    std::vector<std::uint64_t> buckets; ///< cumulative (latency_quantile)
    std::uint64_t count = 0;            ///< histogram count (latency_quantile)
  };
  struct RuleState {
    SloRule rule;
    sim::Time horizon = 0;  ///< longest window; ring retention
    std::deque<Sample> samples;
    bool firing = false;
    Counter* fired_counter = nullptr;
  };

  void tick();
  void observe(RuleState& state);
  /// Condition value on one window ending now; nullopt = not enough data.
  std::optional<double> window_value(const RuleState& state,
                                     sim::Time window) const;
  bool condition_met(const RuleState& state, double value) const;
  void transition(RuleState& state, bool firing, double value);

  sim::Simulation& sim_;
  Registry& registry_;
  SloConfig config_;
  std::function<void()> refresh_;
  std::vector<RuleState> states_;
  std::vector<SloAlert> alerts_;
  std::uint64_t fires_ = 0, clears_ = 0;
  Counter* fires_total_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Tracer* tracer_ = nullptr;
  int lane_ = 0;
  std::function<void(const SloAlert&)> hook_;
  sim::EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace bm::obs
