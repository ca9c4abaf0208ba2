#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bm::obs {

namespace detail {

std::string format_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  const double rounded = std::nearbyint(v);
  if (rounded == v && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

namespace {

/// Prometheus metric names cannot contain '-' or '{' from our free-form
/// names; normalize the offenders and leave the rest alone.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace
}  // namespace detail

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  sum_sq_ += v * v;
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - upper_bounds_.begin())] += 1;
}

double Histogram::stddev() const {
  if (count_ < 2) return 0;
  const double n = static_cast<double>(count_);
  const double var = std::max(0.0, sum_sq_ / n - (sum_ / n) * (sum_ / n));
  return std::sqrt(var);
}

std::vector<double> Histogram::latency_ms_buckets() {
  return {0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 50, 100, 250, 500, 1000};
}

std::vector<double> Histogram::latency_us_buckets() {
  return {25, 50, 100, 150, 200, 300, 500, 750, 1000, 2000, 5000, 10000};
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  auto& entry = counters_[name];
  if (!entry.metric) {
    entry.metric = std::make_unique<Counter>();
    entry.help = help;
  }
  return *entry.metric;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  auto& entry = gauges_[name];
  if (!entry.metric) {
    entry.metric = std::make_unique<Gauge>();
    entry.help = help;
  }
  return *entry.metric;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds,
                               const std::string& help) {
  auto& entry = histograms_[name];
  if (!entry.metric) {
    entry.metric = std::make_unique<Histogram>(std::move(upper_bounds));
    entry.help = help;
    return *entry.metric;
  }
  // register-or-get is only sound when both sites mean the same histogram;
  // different bounds silently reusing the first entry hid real bugs.
  std::sort(upper_bounds.begin(), upper_bounds.end());
  if (upper_bounds != entry.metric->upper_bounds())
    throw std::invalid_argument(
        "obs::Registry: histogram '" + name +
        "' re-registered with different bucket bounds");
  return *entry.metric;
}

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.metric.get() : nullptr;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.metric.get() : nullptr;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.metric.get() : nullptr;
}

void Registry::for_each(
    const std::function<void(const std::string&, const Counter&)>& counter_fn,
    const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
    const std::function<void(const std::string&, const Histogram&)>&
        histogram_fn) const {
  if (counter_fn)
    for (const auto& [name, entry] : counters_) counter_fn(name, *entry.metric);
  if (gauge_fn)
    for (const auto& [name, entry] : gauges_) gauge_fn(name, *entry.metric);
  if (histogram_fn)
    for (const auto& [name, entry] : histograms_)
      histogram_fn(name, *entry.metric);
}

std::string Registry::render_text(sim::Time at) const {
  using detail::format_number;
  std::ostringstream out;
  out << "# snapshot at " << at << " ns simulated time\n";
  for (const auto& [name, entry] : counters_) {
    const std::string n = detail::prom_name(name);
    if (!entry.help.empty()) out << "# HELP " << n << " " << entry.help << "\n";
    out << "# TYPE " << n << " counter\n";
    out << n << " " << entry.metric->value() << "\n";
  }
  for (const auto& [name, entry] : gauges_) {
    const std::string n = detail::prom_name(name);
    if (!entry.help.empty()) out << "# HELP " << n << " " << entry.help << "\n";
    out << "# TYPE " << n << " gauge\n";
    out << n << " " << format_number(entry.metric->value()) << "\n";
  }
  for (const auto& [name, entry] : histograms_) {
    const std::string n = detail::prom_name(name);
    const Histogram& h = *entry.metric;
    if (!entry.help.empty()) out << "# HELP " << n << " " << entry.help << "\n";
    out << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
      cumulative += h.bucket_counts()[i];
      out << n << "_bucket{le=\"" << format_number(h.upper_bounds()[i])
          << "\"} " << cumulative << "\n";
    }
    out << n << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
    out << n << "_sum " << format_number(h.sum()) << "\n";
    out << n << "_count " << h.count() << "\n";
  }
  return out.str();
}

std::string Registry::render_json(sim::Time at) const {
  using detail::format_number;
  using detail::json_escape;
  std::ostringstream out;
  out << "{\n  \"at_ns\": " << at << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, entry] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << entry.metric->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, entry] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << format_number(entry.metric->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, entry] : histograms_) {
    const Histogram& h = *entry.metric;
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
        << "\"count\": " << h.count() << ", \"sum\": "
        << format_number(h.sum()) << ", \"min\": " << format_number(h.min())
        << ", \"max\": " << format_number(h.max())
        << ", \"mean\": " << format_number(h.mean())
        << ", \"stddev\": " << format_number(h.stddev())
        << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"le\": " << format_number(h.upper_bounds()[i])
          << ", \"count\": " << h.bucket_counts()[i] << "}";
    }
    if (!h.upper_bounds().empty()) out << ", ";
    out << "{\"le\": \"+Inf\", \"count\": "
        << h.bucket_counts().back() << "}]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

bool Registry::write_text(const std::string& path, sim::Time at) const {
  return detail::write_file(path, render_text(at));
}

bool Registry::write_json(const std::string& path, sim::Time at) const {
  return detail::write_file(path, render_json(at));
}

}  // namespace bm::obs
