// Metrics registry: counters, gauges and fixed-bucket histograms registered
// by name, snapshotable at any simulated time.
//
// The registry is the machine-readable counterpart of the paper's
// block_monitor counters (§4.1): every layer of the reproduction publishes
// into one Registry, and a snapshot can be rendered as Prometheus
// text-exposition format or JSON at any sim::Time. All values are driven by
// simulated time and deterministic event counts — two runs with the same
// seed serialize byte-identically. Counters and gauges are set from each
// component's own stats by its publish_metrics; histograms, observed once
// per event, are held as plain pointers (null by default), so an
// unattached registry costs one branch per probe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace bm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// Snapshot-style publication: overwrite with an externally tracked
  /// cumulative value (used when converting pre-existing stat structs).
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram (Prometheus semantics: cumulative buckets over
/// `le` upper bounds, with an implicit +Inf bucket).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
  }
  /// Population standard deviation over the observed values.
  double stddev() const;

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) counts; size = upper_bounds() + 1 (+Inf).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Sensible default bucket sets for the pipeline's two latency scales.
  static std::vector<double> latency_ms_buckets();
  static std::vector<double> latency_us_buckets();

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;  ///< one per bound, plus +Inf
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named metric store. register-or-get semantics: calling counter("x")
/// twice returns the same object, so layers can share totals.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Register-or-get, with one sharp edge: re-registering an existing name
  /// with *different* bucket bounds throws std::invalid_argument instead of
  /// silently handing back the first entry's buckets (which would make two
  /// call sites disagree about what the histogram measures).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& help = "");

  // Lookups (null when the name was never registered) — used by tests.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Visit every metric in name order (counters, then gauges, then
  /// histograms). Read-only: the continuous-telemetry sampler is built on
  /// this, so visiting must not register or mutate anything.
  void for_each(
      const std::function<void(const std::string&, const Counter&)>& counter_fn,
      const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
      const std::function<void(const std::string&, const Histogram&)>&
          histogram_fn) const;

  /// Prometheus text exposition format, annotated with the snapshot time.
  std::string render_text(sim::Time at) const;
  /// JSON snapshot: {"at_ns":..,"counters":{..},"gauges":{..},
  /// "histograms":{..}} with names in sorted order (deterministic).
  std::string render_json(sim::Time at) const;

  bool write_text(const std::string& path, sim::Time at) const;
  bool write_json(const std::string& path, sim::Time at) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    std::string help;
  };

  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

namespace detail {
/// Deterministic number formatting shared by the serializers: integers are
/// printed exactly, non-integers with enough digits to round-trip.
std::string format_number(double v);
/// The body of a JSON string literal holding `s`: quotes, backslashes and
/// control characters escaped. Shared by every obs serializer.
std::string json_escape(const std::string& s);
/// Write `content` to `path` (truncating); false on any I/O failure.
bool write_file(const std::string& path, const std::string& content);
}  // namespace detail

}  // namespace bm::obs
