// Continuous-telemetry sampler (src/obs/timeseries.hpp): deterministic
// sim-time sampling, counter-rate derivation, and the artifact contracts
// (docs/OBSERVABILITY.md).
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/timeseries.hpp"

namespace bm::obs {
namespace {

TimeSeriesConfig every_5ms() {
  TimeSeriesConfig config;
  config.interval = 5 * sim::kMillisecond;
  return config;
}

/// One scripted run: a counter stepping at known times, a gauge moving, a
/// histogram observing. Returns the sampler's JSON artifact.
std::string scripted_run_json(std::string* csv = nullptr) {
  sim::Simulation sim;
  Registry registry;
  Counter& work = registry.counter("work_total", "units of work done");
  Gauge& depth = registry.gauge("queue_depth", "queued right now");
  Histogram& lat = registry.histogram("latency_ms", {1.0, 5.0, 25.0}, "latency");

  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();
  // 10 units of work per ms for the first 10 ms, then idle.
  for (int t = 1; t <= 10; ++t)
    sim.schedule(static_cast<sim::Time>(t) * sim::kMillisecond, [&, t] {
      work.inc(10);
      depth.set(static_cast<double>(t % 4));
      lat.observe(static_cast<double>(t));
    });
  sim.run_until(20 * sim::kMillisecond);
  sampler.sample_now();
  sampler.stop();
  if (csv != nullptr) *csv = sampler.to_csv();
  return sampler.to_json();
}

TEST(TimeSeriesSampler, SamplesCountersAtSimTimes) {
  sim::Simulation sim;
  Registry registry;
  Counter& c = registry.counter("c_total", "test");
  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();
  sim.schedule(2 * sim::kMillisecond, [&] { c.inc(4); });
  sim.schedule(7 * sim::kMillisecond, [&] { c.inc(6); });
  sim.run_until(10 * sim::kMillisecond);
  sampler.stop();

  // Baseline at 0 ms plus ticks at 5 ms and 10 ms.
  const std::vector<sim::Time> want_at = {0, 5 * sim::kMillisecond,
                                          10 * sim::kMillisecond};
  EXPECT_EQ(sampler.sample_times(), want_at);
  const std::vector<double> want_values = {0, 4, 10};
  EXPECT_EQ(sampler.values("c_total"), want_values);
}

TEST(TimeSeriesSampler, CounterRateIsDeltaOverDtSeconds) {
  sim::Simulation sim;
  Registry registry;
  Counter& c = registry.counter("c_total", "test");
  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();
  sim.schedule(1 * sim::kMillisecond, [&] { c.inc(50); });
  sim.schedule(6 * sim::kMillisecond, [&] { c.inc(25); });
  sim.run_until(10 * sim::kMillisecond);
  sampler.stop();

  const std::vector<double> rates = sampler.rates("c_total");
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 0);       // baseline: (0 - 0) / anything
  EXPECT_DOUBLE_EQ(rates[1], 10000);   // 50 in 5 ms
  EXPECT_DOUBLE_EQ(rates[2], 5000);    // 25 in 5 ms
}

TEST(TimeSeriesSampler, MidRunSeriesBackfilledWithZeros) {
  sim::Simulation sim;
  Registry registry;
  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();
  // The metric does not exist until 7 ms in.
  sim.schedule(7 * sim::kMillisecond, [&] {
    registry.counter("late_total", "appears mid-run").inc(3);
  });
  sim.run_until(10 * sim::kMillisecond);
  sampler.stop();

  const std::vector<double> want = {0, 0, 3};  // 0 ms, 5 ms, 10 ms
  EXPECT_EQ(sampler.values("late_total"), want);
}

TEST(TimeSeriesSampler, HistogramsBecomeCountAndSumColumns) {
  sim::Simulation sim;
  Registry registry;
  Histogram& h = registry.histogram("lat_ms", {1.0, 10.0}, "test");
  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();
  sim.schedule(3 * sim::kMillisecond, [&] {
    h.observe(2.0);
    h.observe(4.0);
  });
  sim.run_until(5 * sim::kMillisecond);
  sampler.stop();

  const std::vector<double> want_count = {0, 2};
  const std::vector<double> want_sum = {0, 6};
  EXPECT_EQ(sampler.values("lat_ms_count"), want_count);
  EXPECT_EQ(sampler.values("lat_ms_sum"), want_sum);
}

TEST(TimeSeriesSampler, DuplicateTimestampCollapsed) {
  sim::Simulation sim;
  Registry registry;
  registry.counter("c_total", "test");
  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();       // baseline at 0
  sampler.sample_now();  // same instant: skipped
  EXPECT_EQ(sampler.sample_count(), 1u);
}

TEST(TimeSeriesSampler, EmptyRegistryStillEmitsValidArtifacts) {
  sim::Simulation sim;
  Registry registry;
  TimeSeriesSampler sampler(sim, registry, every_5ms(), {});
  sampler.start();
  sim.run_until(10 * sim::kMillisecond);
  sampler.stop();

  EXPECT_EQ(sampler.series_count(), 0u);
  const std::string json = sampler.to_json();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 3"), std::string::npos);
  EXPECT_EQ(sampler.to_csv(), "at_ns\n0\n5000000\n10000000\n");
}

TEST(TimeSeriesSampler, SameScriptProducesByteIdenticalArtifacts) {
  std::string csv_a, csv_b;
  const std::string json_a = scripted_run_json(&csv_a);
  const std::string json_b = scripted_run_json(&csv_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(csv_a, csv_b);
  // And the artifact carries the contract markers the selfcheck validates.
  EXPECT_NE(json_a.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json_a.find("\"interval_ns\": 5000000"), std::string::npos);
  EXPECT_NE(json_a.find("\"work_total\""), std::string::npos);
  EXPECT_NE(json_a.find("\"rate_per_s\""), std::string::npos);
  EXPECT_NE(json_a.find("\"latency_ms_count\""), std::string::npos);
}

// Satellite: the Registry refuses a histogram re-registration whose bucket
// bounds disagree with the first — silent bound drift would corrupt every
// windowed-quantile computation built on the bucket layout.
TEST(Registry, HistogramReRegistrationWithDifferentBoundsThrows) {
  Registry registry;
  registry.histogram("lat_ms", {1.0, 5.0}, "test");
  EXPECT_NO_THROW(registry.histogram("lat_ms", {1.0, 5.0}, "test"));
  EXPECT_THROW(registry.histogram("lat_ms", {1.0, 9.0}, "test"),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("lat_ms", {1.0}, "test"),
               std::invalid_argument);
}

}  // namespace
}  // namespace bm::obs
