// The open-loop arrival processes (serve/traffic.hpp) and the scenario
// loader's "serve" section (serve/config.hpp): seed determinism (byte-identical
// schedules), Poisson moment checks, MMPP burst-phase occupancy, and the
// shipped configs/serve_*.json files.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "serve/scenario.hpp"
#include "serve/traffic.hpp"

namespace bm::serve {
namespace {

TrafficConfig poisson(double rate_tps, std::uint64_t seed = 7) {
  TrafficConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.rate_tps = rate_tps;
  config.seed = seed;
  return config;
}

TEST(TrafficGenerator, DeterministicScheduleForSeedAndConfig) {
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kMmpp}) {
    TrafficConfig config = poisson(2000);
    config.process = process;

    TrafficGenerator a(config);
    TrafficGenerator b(config);
    const std::vector<sim::Time> sa = a.schedule(5 * sim::kSecond);
    const std::vector<sim::Time> sb = b.schedule(5 * sim::kSecond);
    ASSERT_GT(sa.size(), 1000u);
    EXPECT_EQ(sa, sb);  // byte-identical arrival sequence

    // A different seed produces a different schedule.
    config.seed = 8;
    TrafficGenerator c(config);
    EXPECT_NE(sa, c.schedule(5 * sim::kSecond));
  }
}

TEST(TrafficGenerator, ArrivalsAreMonotoneAndMatchRepeatedNextArrival) {
  TrafficConfig config = poisson(1000);
  config.process = ArrivalProcess::kMmpp;
  TrafficGenerator gen(config);
  TrafficGenerator step(config);
  const std::vector<sim::Time> arrivals = gen.schedule(2 * sim::kSecond);
  sim::Time prev = 0;
  for (const sim::Time at : arrivals) {
    EXPECT_GE(at, prev);
    prev = at;
    EXPECT_EQ(at, step.next_arrival());
  }
}

TEST(TrafficGenerator, PoissonMeanAndVarianceWithinTolerance) {
  const double rate = 1000.0;
  TrafficGenerator gen(poisson(rate));
  const std::vector<sim::Time> arrivals = gen.schedule(20 * sim::kSecond);
  ASSERT_GT(arrivals.size(), 15000u);

  // Interarrival gaps of a Poisson process are exponential(rate):
  // mean 1/rate seconds, variance 1/rate^2.
  std::vector<double> gaps_s;
  sim::Time prev = 0;
  for (const sim::Time at : arrivals) {
    gaps_s.push_back(static_cast<double>(at - prev) /
                     static_cast<double>(sim::kSecond));
    prev = at;
  }
  double mean = 0;
  for (const double g : gaps_s) mean += g;
  mean /= static_cast<double>(gaps_s.size());
  double var = 0;
  for (const double g : gaps_s) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps_s.size());

  EXPECT_NEAR(mean, 1.0 / rate, 0.03 / rate);
  EXPECT_NEAR(var, 1.0 / (rate * rate), 0.10 / (rate * rate));
}

TEST(TrafficGenerator, MmppBurstOccupancyMatchesStationaryChain) {
  TrafficConfig config = poisson(1000, 21);
  config.process = ArrivalProcess::kMmpp;
  config.burst_rate_tps = 4000;
  config.p_enter_burst = 0.05;
  config.p_exit_burst = 0.25;

  TrafficGenerator gen(config);
  while (gen.arrivals() < 30000) gen.next_arrival();

  // Per-arrival phase flips make the phase sequence a two-state chain with
  // stationary burst occupancy p_enter / (p_enter + p_exit) = 1/6.
  const double occupancy = static_cast<double>(gen.burst_arrivals()) /
                           static_cast<double>(gen.arrivals());
  EXPECT_NEAR(occupancy, 0.05 / (0.05 + 0.25), 0.05);
}

TEST(TrafficGenerator, MmppBurstsArriveFasterThanCalm) {
  TrafficConfig config = poisson(500, 3);
  config.process = ArrivalProcess::kMmpp;
  config.burst_rate_tps = 5000;
  TrafficGenerator gen(config);
  const std::vector<sim::Time> arrivals = gen.schedule(20 * sim::kSecond);

  // The mixed rate must sit strictly between the calm and burst rates.
  const double rate = static_cast<double>(arrivals.size()) / 20.0;
  EXPECT_GT(rate, 550.0);
  EXPECT_LT(rate, 4500.0);
}

TEST(ServeConfig, ParsesEveryKnobAndDerivesSeeds) {
  const char* text = R"({"name": "knobs", "serve": {
    "seed": 99,
    "duration_ms": 750,
    "drain_limit_ms": 4000,
    "validate_vcpus": 4,
    "high_priority_share": 0.3,
    "traffic": { "process": "mmpp", "rate_tps": 1234, "burst_rate_tps": 5000,
                 "p_enter_burst": 0.1, "p_exit_burst": 0.4 },
    "admission": { "queue_capacity": 77, "token_rate_tps": 800,
                   "bucket_capacity": 33, "classes": 3,
                   "pressure_refill_factor": 0.5 },
    "endorse": { "workers": 3, "service_base_us": 200,
                 "per_endorsement_us": 90, "deadline_ms": 10 },
    "ingress": { "max_batch": 40, "batch_timeout_ms": 2,
                 "high_watermark": 9, "low_watermark": 3 },
    "network": { "orgs": 4, "chaincode": "drm",
                 "policy": "3-outof-4 orgs", "zipf_s": 0.8 }
  }})";
  std::string error;
  const auto scenario = parse_scenario(text, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const ServeOptions* options = &scenario->serve;

  EXPECT_EQ(options->name, "knobs");
  EXPECT_EQ(options->duration, 750 * sim::kMillisecond);
  EXPECT_EQ(options->drain_limit, 4000 * sim::kMillisecond);
  EXPECT_EQ(options->validate_vcpus, 4);
  EXPECT_DOUBLE_EQ(options->high_priority_share, 0.3);

  EXPECT_EQ(options->traffic.process, ArrivalProcess::kMmpp);
  EXPECT_DOUBLE_EQ(options->traffic.rate_tps, 1234);
  EXPECT_DOUBLE_EQ(options->traffic.burst_rate_tps, 5000);
  EXPECT_DOUBLE_EQ(options->traffic.p_enter_burst, 0.1);
  EXPECT_DOUBLE_EQ(options->traffic.p_exit_burst, 0.4);

  EXPECT_EQ(options->admission.queue_capacity, 77u);
  EXPECT_DOUBLE_EQ(options->admission.token_rate_tps, 800);
  EXPECT_DOUBLE_EQ(options->admission.bucket_capacity, 33);
  EXPECT_EQ(options->admission.classes, 3);
  EXPECT_DOUBLE_EQ(options->admission.pressure_refill_factor, 0.5);

  EXPECT_EQ(options->endorse.workers, 3);
  EXPECT_EQ(options->endorse.service_base, 200 * sim::kMicrosecond);
  EXPECT_EQ(options->endorse.per_endorsement, 90 * sim::kMicrosecond);
  EXPECT_EQ(options->endorse.deadline, 10 * sim::kMillisecond);

  EXPECT_EQ(options->ingress.max_batch, 40u);
  EXPECT_EQ(options->ingress.batch_timeout, 2 * sim::kMillisecond);
  EXPECT_EQ(options->ingress.high_watermark, 9u);
  EXPECT_EQ(options->ingress.low_watermark, 3u);

  EXPECT_EQ(options->network.orgs, 4);
  EXPECT_EQ(options->network.chaincode, workload::ChaincodeKind::kDrm);
  EXPECT_EQ(options->network.policy_text, "3-outof-4 orgs");
  EXPECT_DOUBLE_EQ(options->network.smallbank.zipf_s, 0.8);

  // One top-level seed, two decorrelated streams.
  EXPECT_EQ(options->network.seed, 99u);
  EXPECT_EQ(options->traffic.seed, 99u ^ 0x9E3779B97F4A7C15ull);
  EXPECT_NE(options->traffic.seed, options->network.seed);
}

TEST(ServeConfig, MissingKeysKeepDefaults) {
  const auto scenario = parse_scenario(R"({"serve": {}})");
  ASSERT_TRUE(scenario.has_value());
  const ServeOptions* options = &scenario->serve;
  const ServeOptions defaults;
  EXPECT_EQ(options->duration, defaults.duration);
  EXPECT_EQ(options->admission.queue_capacity,
            defaults.admission.queue_capacity);
  EXPECT_EQ(options->ingress.max_batch, defaults.ingress.max_batch);
  EXPECT_EQ(options->traffic.process, ArrivalProcess::kPoisson);
}

TEST(ServeConfig, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_scenario("not json", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_scenario("[1,2]", &error).has_value());
  EXPECT_FALSE(parse_scenario(R"({"serve": [1,2]})", &error).has_value());
  EXPECT_FALSE(
      parse_scenario(R"({"serve": {"traffic": {"process": "warp"}}})", &error)
          .has_value());
  EXPECT_FALSE(
      parse_scenario(R"({"serve": {"traffic": {"rate_tps": "fast"}}})", &error)
          .has_value());
  EXPECT_FALSE(
      parse_scenario(R"({"serve": {"network": {"chaincode": "doom"}}})", &error)
          .has_value());
  EXPECT_FALSE(load_scenario("/nonexistent/serve.json", &error).has_value());
}

TEST(ServeConfig, ShippedScenarioFilesLoad) {
  for (const char* name : {"serve_steady.json", "serve_burst.json"}) {
    std::string error;
    const auto scenario = load_scenario(
        std::string(BM_REPO_ROOT) + "/configs/" + name, &error);
    ASSERT_TRUE(scenario.has_value()) << name << ": " << error;
    const ServeOptions* options = &scenario->serve;
    EXPECT_GT(options->traffic.rate_tps, 0);
    EXPECT_GT(options->admission.queue_capacity, 0u);
    EXPECT_GT(options->ingress.max_batch, 0u);
  }
}

}  // namespace
}  // namespace bm::serve
