#include "obs/slo.hpp"

#include <algorithm>
#include <sstream>

#include "common/config.hpp"

namespace bm::obs {

std::string_view slo_rule_kind_name(SloRuleKind kind) {
  switch (kind) {
    case SloRuleKind::kRatio: return "ratio";
    case SloRuleKind::kRateAbove: return "rate_above";
    case SloRuleKind::kGaugeAbove: return "gauge_above";
    case SloRuleKind::kLatencyQuantile: return "latency_quantile";
  }
  return "unknown";
}

// --- config parsing ---------------------------------------------------------
//
// Built on the shared scenario-config facility (common/config.hpp):
// diagnostics name the file (when loaded from disk) and the JSON path of
// the offending key, e.g. `slo.rules[1].burn_rate: expected number > 0`.

namespace {

bool parse_rule(const config::Section& node, SloRule* rule) {
  if (!node.is_object()) return node.fail("expected an object");
  bool ok = true;
  ok &= node.require_string("name", &rule->name);
  if (node.member("kind").present()) {
    ok &= node.read_enum<SloRuleKind>(
        "kind", &rule->kind,
        {{"ratio", SloRuleKind::kRatio},
         {"rate_above", SloRuleKind::kRateAbove},
         {"gauge_above", SloRuleKind::kGaugeAbove},
         {"latency_quantile", SloRuleKind::kLatencyQuantile}});
  } else {
    ok &= node.fail_key("kind", "missing required string");
  }
  ok &= node.require_string("metric", &rule->metric);
  ok &= node.read_string("denominator", &rule->denominator);
  if (rule->kind == SloRuleKind::kRatio && rule->denominator.empty())
    ok &= node.fail_key("denominator", "ratio rules need a denominator counter");

  // "objective" (ratio) and "threshold" are the same slot; accept either.
  const config::Range bound = rule->kind == SloRuleKind::kRatio
                                  ? config::positive()
                                  : config::Range{};
  if (node.member("objective").present())
    ok &= node.read_number("objective", &rule->threshold, bound);
  else if (node.member("threshold").present())
    ok &= node.read_number("threshold", &rule->threshold, bound);
  else
    ok &= node.fail_key("objective",
                        "missing required number (or \"threshold\")");

  ok &= node.read_number("quantile", &rule->quantile, config::open_unit());
  ok &= node.read_number("burn_rate", &rule->burn_rate, config::positive());
  ok &= node.read_u64("min_count", &rule->min_count, config::non_negative());

  const config::Section windows = node.require_array("windows_ms");
  if (!windows.present()) ok = false;
  if (windows.present() && windows.array_size() == 0)
    ok &= windows.fail("expected a non-empty array");
  for (std::size_t i = 0; i < windows.array_size(); ++i) {
    double ms = 0;
    if (!windows.element(i).value_number(&ms, config::positive()))
      return false;
    rule->windows.push_back(
        static_cast<sim::Time>(ms * static_cast<double>(sim::kMillisecond)));
  }
  std::sort(rule->windows.begin(), rule->windows.end());
  return ok;
}

}  // namespace

namespace detail {

SloConfig parse_slo_section(const bm::config::Section& s) {
  SloConfig config;
  s.read_string("name", &config.name);
  s.read_time_ms("evaluation_interval_ms", &config.evaluation_interval,
                 config::positive());
  const config::Section rules = s.require_array("rules");
  for (std::size_t i = 0; i < rules.array_size(); ++i) {
    SloRule rule;
    if (!parse_rule(rules.element(i), &rule)) break;
    config.rules.push_back(std::move(rule));
  }
  return config;
}

}  // namespace detail

std::optional<SloConfig> load_slo_config(const std::string& path,
                                         std::string* error) {
  const config::Root root = config::Root::load(path, "slo");
  SloConfig config = detail::parse_slo_section(root.section());
  if (!root.finish()) {
    if (error != nullptr) *error = root.error();
    return std::nullopt;
  }
  return config;
}

// --- monitor ----------------------------------------------------------------

SloMonitor::SloMonitor(sim::Simulation& sim, Registry& registry,
                       SloConfig config, std::function<void()> refresh)
    : sim_(sim),
      registry_(registry),
      config_(std::move(config)),
      refresh_(std::move(refresh)) {
  fires_total_ =
      &registry_.counter("slo_alerts_fired_total", "SLO rule fire transitions");
  active_gauge_ =
      &registry_.gauge("slo_alerts_active", "SLO rules currently firing");
  for (const SloRule& rule : config_.rules) {
    RuleState state;
    state.rule = rule;
    state.horizon = rule.windows.empty() ? 0 : rule.windows.back();
    state.fired_counter =
        &registry_.counter("slo_alert_" + rule.name + "_fired_total",
                           "fire transitions of SLO rule " + rule.name);
    states_.push_back(std::move(state));
  }
}

void SloMonitor::set_tracer(Tracer* tracer, int lane) {
  tracer_ = tracer;
  lane_ = lane;
}

void SloMonitor::set_alert_hook(std::function<void(const SloAlert&)> hook) {
  hook_ = std::move(hook);
}

void SloMonitor::observe(RuleState& state) {
  const SloRule& rule = state.rule;
  Sample sample;
  sample.at = sim_.now();
  switch (rule.kind) {
    case SloRuleKind::kRatio: {
      const Counter* a = registry_.find_counter(rule.metric);
      const Counter* b = registry_.find_counter(rule.denominator);
      sample.a = a != nullptr ? static_cast<double>(a->value()) : 0;
      sample.b = b != nullptr ? static_cast<double>(b->value()) : 0;
      break;
    }
    case SloRuleKind::kRateAbove: {
      const Counter* a = registry_.find_counter(rule.metric);
      sample.a = a != nullptr ? static_cast<double>(a->value()) : 0;
      break;
    }
    case SloRuleKind::kGaugeAbove: {
      const Gauge* g = registry_.find_gauge(rule.metric);
      sample.a = g != nullptr ? g->value() : 0;
      break;
    }
    case SloRuleKind::kLatencyQuantile: {
      const Histogram* h = registry_.find_histogram(rule.metric);
      if (h != nullptr) {
        sample.buckets = h->bucket_counts();
        sample.count = h->count();
      }
      break;
    }
  }
  // Deduplicate same-instant samples (baseline + first tick).
  if (!state.samples.empty() && state.samples.back().at == sample.at)
    state.samples.back() = std::move(sample);
  else
    state.samples.push_back(std::move(sample));
  // Retain one sample at or before the horizon edge so every window delta
  // has a base; everything older is dead weight.
  const sim::Time edge = sim_.now() - state.horizon;
  while (state.samples.size() >= 2 && state.samples[1].at <= edge)
    state.samples.pop_front();
}

std::optional<double> SloMonitor::window_value(const RuleState& state,
                                               sim::Time window) const {
  if (state.samples.size() < 2) return std::nullopt;
  const Sample& now = state.samples.back();
  const sim::Time start = now.at - window;

  // Base = the latest sample at or before the window start. Delta-based
  // rules tolerate a partial window early in the run (the detection-latency
  // clock should not wait for the long window to fill); sustained gauge
  // rules require full coverage.
  std::size_t base = 0;
  bool full = false;
  for (std::size_t i = 0; i + 1 < state.samples.size(); ++i) {
    if (state.samples[i].at <= start) {
      base = i;
      full = true;
    }
  }
  const Sample& from = state.samples[base];
  const SloRule& rule = state.rule;

  switch (rule.kind) {
    case SloRuleKind::kRatio: {
      const double db = now.b - from.b;
      if (db < static_cast<double>(rule.min_count)) return 0.0;
      const double da = now.a - from.a;
      return (da / db) / rule.threshold;  // error-budget burn rate
    }
    case SloRuleKind::kRateAbove: {
      const sim::Time dt = now.at - from.at;
      if (dt <= 0) return std::nullopt;
      return (now.a - from.a) /
             (static_cast<double>(dt) / static_cast<double>(sim::kSecond));
    }
    case SloRuleKind::kGaugeAbove: {
      if (!full) return std::nullopt;  // "sustained" needs the whole window
      double lowest = now.a;
      for (std::size_t i = base; i < state.samples.size(); ++i) {
        const Sample& s = state.samples[i];
        if (s.at >= start) lowest = std::min(lowest, s.a);
      }
      return lowest;
    }
    case SloRuleKind::kLatencyQuantile: {
      const std::uint64_t dcount =
          now.count >= from.count ? now.count - from.count : 0;
      if (dcount < std::max<std::uint64_t>(1, rule.min_count)) return 0.0;
      const Histogram* h = registry_.find_histogram(rule.metric);
      if (h == nullptr) return 0.0;
      const std::vector<double>& bounds = h->upper_bounds();
      const double target = rule.quantile * static_cast<double>(dcount);
      double cumulative = 0;
      for (std::size_t i = 0; i < now.buckets.size(); ++i) {
        const double in_bucket =
            static_cast<double>(now.buckets[i]) -
            (i < from.buckets.size() ? static_cast<double>(from.buckets[i])
                                     : 0.0);
        if (in_bucket <= 0) continue;
        if (cumulative + in_bucket >= target) {
          if (i >= bounds.size())  // +Inf bucket: clamp to the last bound
            return bounds.empty() ? 0.0 : bounds.back();
          const double lower = i == 0 ? 0.0 : bounds[i - 1];
          return lower +
                 (bounds[i] - lower) * (target - cumulative) / in_bucket;
        }
        cumulative += in_bucket;
      }
      return bounds.empty() ? 0.0 : bounds.back();
    }
  }
  return std::nullopt;
}

bool SloMonitor::condition_met(const RuleState& state, double value) const {
  switch (state.rule.kind) {
    case SloRuleKind::kRatio: return value >= state.rule.burn_rate;
    case SloRuleKind::kRateAbove: return value >= state.rule.threshold;
    case SloRuleKind::kGaugeAbove: return value >= state.rule.threshold;
    case SloRuleKind::kLatencyQuantile: return value >= state.rule.threshold;
  }
  return false;
}

void SloMonitor::transition(RuleState& state, bool firing, double value) {
  if (firing == state.firing) return;
  state.firing = firing;
  SloAlert alert{state.rule.name, sim_.now(), firing, value};
  if (firing) {
    ++fires_;
    fires_total_->inc();
    state.fired_counter->inc();
  } else {
    ++clears_;
  }
  active_gauge_->set(static_cast<double>(active()));
  if (tracer_ != nullptr)
    tracer_->instant(lane_, std::string(firing ? "slo fire: " : "slo clear: ") +
                                state.rule.name,
                     "slo", sim_.now(),
                     {{"value", detail::format_number(value)},
                      {"rule", state.rule.name}});
  alerts_.push_back(alert);
  if (hook_) hook_(alert);
}

void SloMonitor::evaluate_now() {
  if (refresh_) refresh_();
  for (RuleState& state : states_) {
    observe(state);
    bool met = !state.rule.windows.empty();
    double reported = 0;
    for (std::size_t i = 0; i < state.rule.windows.size(); ++i) {
      const auto value = window_value(state, state.rule.windows[i]);
      if (!value) {
        met = false;
        break;
      }
      if (i == 0) reported = *value;  // shortest window = headline number
      if (!condition_met(state, *value)) met = false;
    }
    transition(state, met, reported);
  }
}

void SloMonitor::tick() {
  evaluate_now();
  pending_ = sim_.schedule(config_.evaluation_interval, [this] { tick(); });
}

void SloMonitor::start() {
  if (running_) return;
  running_ = true;
  // Baseline sample only: no rule can fire before one interval of history.
  if (refresh_) refresh_();
  for (RuleState& state : states_) observe(state);
  pending_ = sim_.schedule(config_.evaluation_interval, [this] { tick(); });
}

void SloMonitor::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
}

std::size_t SloMonitor::active() const {
  std::size_t n = 0;
  for (const RuleState& state : states_)
    if (state.firing) ++n;
  return n;
}

std::optional<sim::Time> SloMonitor::first_fire(const std::string& rule) const {
  for (const SloAlert& alert : alerts_)
    if (alert.firing && (rule.empty() || alert.rule == rule)) return alert.at;
  return std::nullopt;
}

std::string SloMonitor::to_json() const {
  using detail::format_number;
  using detail::json_escape;
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"kind\": \"slo_alerts\",\n"
      << "  \"config\": \"" << json_escape(config_.name) << "\",\n"
      << "  \"evaluation_interval_ns\": " << config_.evaluation_interval
      << ",\n  \"rules\": [";
  for (std::size_t i = 0; i < config_.rules.size(); ++i) {
    const SloRule& rule = config_.rules[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << json_escape(rule.name) << "\", \"kind\": \""
        << slo_rule_kind_name(rule.kind) << "\", \"metric\": \""
        << json_escape(rule.metric) << "\", \"windows_ms\": [";
    for (std::size_t w = 0; w < rule.windows.size(); ++w)
      out << (w == 0 ? "" : ", ")
          << format_number(static_cast<double>(rule.windows[w]) /
                           static_cast<double>(sim::kMillisecond));
    out << "]}";
  }
  out << (config_.rules.empty() ? "" : "\n  ") << "],\n"
      << "  \"fires\": " << fires_ << ",\n  \"clears\": " << clears_
      << ",\n  \"events\": [";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const SloAlert& alert = alerts_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"rule\": \""
        << json_escape(alert.rule) << "\", \"event\": \""
        << (alert.firing ? "fire" : "clear") << "\", \"at_ns\": " << alert.at
        << ", \"value\": " << format_number(alert.value) << "}";
  }
  out << (alerts_.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

bool SloMonitor::write_json(const std::string& path) const {
  return detail::write_file(path, to_json());
}

}  // namespace bm::obs
