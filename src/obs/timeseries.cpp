#include "obs/timeseries.hpp"

#include <algorithm>
#include <sstream>

namespace bm::obs {

TimeSeriesSampler::TimeSeriesSampler(sim::Simulation& sim,
                                     const Registry& registry,
                                     TimeSeriesConfig config,
                                     std::function<void()> refresh)
    : sim_(sim),
      registry_(registry),
      config_(config),
      refresh_(std::move(refresh)) {
  if (config_.interval <= 0) config_.interval = 10 * sim::kMillisecond;
}

void TimeSeriesSampler::record(const std::string& name, Kind kind,
                               double value) {
  Series& series = series_[name];
  if (series.values.empty()) series.kind = kind;
  // Backfill a series that first appeared mid-run: it was implicitly zero
  // (counters start at 0, gauges default to 0) for every earlier sample.
  while (series.values.size() + 1 < at_.size()) series.values.push_back(0);
  series.values.push_back(value);
}

void TimeSeriesSampler::sample_now() {
  if (!at_.empty() && at_.back() == sim_.now()) return;
  if (refresh_) refresh_();
  at_.push_back(sim_.now());
  registry_.for_each(
      [this](const std::string& name, const Counter& counter) {
        record(name, Kind::kCounter, static_cast<double>(counter.value()));
      },
      [this](const std::string& name, const Gauge& gauge) {
        record(name, Kind::kGauge, gauge.value());
      },
      [this](const std::string& name, const Histogram& histogram) {
        record(name + "_count", Kind::kCounter,
               static_cast<double>(histogram.count()));
        record(name + "_sum", Kind::kCounter, histogram.sum());
      });
}

void TimeSeriesSampler::tick() {
  sample_now();
  pending_ = sim_.schedule(config_.interval, [this] { tick(); });
}

void TimeSeriesSampler::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void TimeSeriesSampler::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
}

std::vector<double> TimeSeriesSampler::values(const std::string& name) const {
  const auto it = series_.find(name);
  if (it == series_.end()) return {};
  std::vector<double> out = it->second.values;
  out.resize(at_.size(), 0);  // series may trail if registry shrank (never)
  return out;
}

std::vector<double> TimeSeriesSampler::rates(const std::string& name) const {
  const std::vector<double> v = values(name);
  std::vector<double> out(v.size(), 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const sim::Time prev_at = i == 0 ? 0 : at_[i - 1];
    const double prev_v = i == 0 ? 0 : v[i - 1];
    const sim::Time dt = at_[i] - prev_at;
    if (dt > 0)
      out[i] = (v[i] - prev_v) /
               (static_cast<double>(dt) / static_cast<double>(sim::kSecond));
  }
  return out;
}

std::string TimeSeriesSampler::to_json() const {
  using detail::format_number;
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"kind\": \"timeseries\",\n"
      << "  \"interval_ns\": " << config_.interval << ",\n"
      << "  \"samples\": " << at_.size() << ",\n  \"at_ns\": [";
  for (std::size_t i = 0; i < at_.size(); ++i)
    out << (i == 0 ? "" : ", ") << at_[i];
  out << "],\n  \"series\": {";
  bool first = true;
  for (const auto& [name, series] : series_) {
    out << (first ? "\n" : ",\n") << "    \"" << detail::json_escape(name)
        << "\": {\"type\": \""
        << (series.kind == Kind::kCounter ? "counter" : "gauge")
        << "\", \"values\": [";
    const std::vector<double> v = values(name);
    for (std::size_t i = 0; i < v.size(); ++i)
      out << (i == 0 ? "" : ", ") << format_number(v[i]);
    out << "]";
    if (series.kind == Kind::kCounter) {
      out << ", \"rate_per_s\": [";
      const std::vector<double> r = rates(name);
      for (std::size_t i = 0; i < r.size(); ++i)
        out << (i == 0 ? "" : ", ") << format_number(r[i]);
      out << "]";
    }
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string TimeSeriesSampler::to_csv() const {
  using detail::format_number;
  std::ostringstream out;
  out << "at_ns";
  for (const auto& [name, series] : series_) out << "," << name;
  out << "\n";
  // Column-major storage, row-major emission; pull each column once.
  std::vector<std::vector<double>> columns;
  columns.reserve(series_.size());
  for (const auto& [name, series] : series_) columns.push_back(values(name));
  for (std::size_t row = 0; row < at_.size(); ++row) {
    out << at_[row];
    for (const auto& column : columns)
      out << "," << format_number(column[row]);
    out << "\n";
  }
  return out.str();
}

bool TimeSeriesSampler::write_json(const std::string& path) const {
  return detail::write_file(path, to_json());
}

bool TimeSeriesSampler::write_csv(const std::string& path) const {
  return detail::write_file(path, to_csv());
}

}  // namespace bm::obs
