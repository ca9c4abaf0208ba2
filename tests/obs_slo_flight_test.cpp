// SLO burn-rate monitor + flight recorder (src/obs/slo.hpp,
// src/obs/flight.hpp): rule parsing, windowed alerting on simulated time,
// ring eviction, dump-on-trigger, and the end-to-end promises the runbook
// makes (docs/OBSERVABILITY.md): alerts on injected degradation, silence
// on a clean run, and a telemetry-blind pipeline (same report either way).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "net/faults.hpp"
#include "obs/flight.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "serve/pipeline.hpp"
#include "serve/scenario.hpp"
#include "workload/chaos.hpp"

namespace bm::obs {
namespace {

// --- rule parsing -------------------------------------------------------

/// The "slo" section of a composed scenario holding `section`.
std::optional<SloConfig> parse_slo(const std::string& section,
                                   std::string* error) {
  const auto scenario =
      serve::parse_scenario(R"({"slo": )" + section + "}", error);
  if (!scenario) return std::nullopt;
  return scenario->slo;
}

TEST(SloConfigParse, AcceptsTheShippedRuleShapes) {
  std::string error;
  const auto config = parse_slo(R"({
    "name": "t", "evaluation_interval_ms": 5,
    "rules": [
      {"name": "r1", "kind": "ratio", "metric": "bad", "denominator": "all",
       "objective": 0.05, "burn_rate": 2.0, "min_count": 10,
       "windows_ms": [25, 250]},
      {"name": "r2", "kind": "rate_above", "metric": "c", "threshold": 1,
       "windows_ms": [100]},
      {"name": "r3", "kind": "latency_quantile", "metric": "h",
       "quantile": 0.9, "threshold": 50, "windows_ms": [100]}
    ]})", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->rules.size(), 3u);
  EXPECT_EQ(config->evaluation_interval, 5 * sim::kMillisecond);
  EXPECT_EQ(config->rules[0].kind, SloRuleKind::kRatio);
  EXPECT_DOUBLE_EQ(config->rules[0].threshold, 0.05);
  EXPECT_EQ(config->rules[0].windows.back(), 250 * sim::kMillisecond);
}

TEST(SloConfigParse, RejectsMalformedRulesLoudly) {
  std::string error;
  EXPECT_FALSE(parse_slo(
      R"({"rules": [{"name": "r", "kind": "nope", "metric": "m",
           "windows_ms": [10]}]})", &error));
  EXPECT_NE(error.find("kind"), std::string::npos);
  // ratio without a denominator
  EXPECT_FALSE(parse_slo(
      R"({"rules": [{"name": "r", "kind": "ratio", "metric": "m",
           "objective": 0.1, "windows_ms": [10]}]})", &error));
  // no windows
  EXPECT_FALSE(parse_slo(
      R"({"rules": [{"name": "r", "kind": "rate_above", "metric": "m",
           "threshold": 1, "windows_ms": []}]})", &error));
  // One key per bound: a ratio rule reads "objective", every other kind
  // reads "threshold".
  EXPECT_FALSE(parse_slo(
      R"({"rules": [{"name": "r", "kind": "ratio", "metric": "m",
           "denominator": "d", "threshold": 0.1, "windows_ms": [10]}]})",
      &error));
  EXPECT_EQ(error, "scenario.slo.rules[0].objective: missing required number");
  EXPECT_FALSE(parse_slo(
      R"({"rules": [{"name": "r", "kind": "gauge_above", "metric": "m",
           "objective": 3, "windows_ms": [10]}]})", &error));
  EXPECT_EQ(error, "scenario.slo.rules[0].threshold: missing required number");
}

// --- monitor semantics --------------------------------------------------

SloConfig one_rule(SloRule rule, sim::Time interval = 5 * sim::kMillisecond) {
  SloConfig config;
  config.evaluation_interval = interval;
  config.rules.push_back(std::move(rule));
  return config;
}

TEST(SloMonitor, RatioRuleFiresOnBurstAndClearsAfter) {
  sim::Simulation sim;
  Registry registry;
  Counter& bad = registry.counter("bad_total", "test");
  Counter& all = registry.counter("all_total", "test");

  SloRule rule;
  rule.name = "burn";
  rule.kind = SloRuleKind::kRatio;
  rule.metric = "bad_total";
  rule.denominator = "all_total";
  rule.threshold = 0.05;  // 5% objective
  rule.burn_rate = 2.0;   // fire at a 10% bad fraction
  rule.min_count = 5;
  rule.windows = {10 * sim::kMillisecond, 50 * sim::kMillisecond};
  SloMonitor monitor(sim, registry, one_rule(rule), {});
  monitor.start();

  // Healthy for 50 ms (2% bad), a 40 ms burst at 50% bad, healthy again.
  for (int t = 1; t <= 200; ++t)
    sim.schedule(static_cast<sim::Time>(t) * sim::kMillisecond, [&, t] {
      const bool burst = t > 50 && t <= 90;
      all.inc(50);
      bad.inc(burst ? 25 : 1);
    });
  sim.run_until(200 * sim::kMillisecond);
  monitor.stop();

  ASSERT_TRUE(monitor.first_fire("burn").has_value());
  // Detection bounded by the long window + one evaluation tick.
  EXPECT_GT(*monitor.first_fire("burn"), 50 * sim::kMillisecond);
  EXPECT_LE(*monitor.first_fire("burn"), 105 * sim::kMillisecond);
  EXPECT_GE(monitor.fires(), 1u);
  EXPECT_EQ(monitor.fires(), monitor.clears());  // burst ended: all cleared
  EXPECT_EQ(monitor.active(), 0u);
  // The alert counters it publishes back into the registry agree.
  EXPECT_EQ(registry.counter("slo_alerts_fired_total", "").value(),
            monitor.fires());
  EXPECT_EQ(registry.counter("slo_alert_burn_fired_total", "").value(),
            monitor.fires());
}

TEST(SloMonitor, CleanRunStaysSilent) {
  sim::Simulation sim;
  Registry registry;
  Counter& bad = registry.counter("bad_total", "test");
  Counter& all = registry.counter("all_total", "test");
  SloRule rule;
  rule.name = "burn";
  rule.kind = SloRuleKind::kRatio;
  rule.metric = "bad_total";
  rule.denominator = "all_total";
  rule.threshold = 0.05;
  rule.burn_rate = 2.0;
  rule.windows = {10 * sim::kMillisecond};
  SloMonitor monitor(sim, registry, one_rule(rule), {});
  monitor.start();
  for (int t = 1; t <= 100; ++t)
    sim.schedule(static_cast<sim::Time>(t) * sim::kMillisecond, [&] {
      all.inc(50);
      bad.inc(1);  // 2%: within the objective
    });
  sim.run_until(100 * sim::kMillisecond);
  monitor.stop();
  EXPECT_EQ(monitor.fires(), 0u);
  EXPECT_FALSE(monitor.first_fire().has_value());
}

TEST(SloMonitor, GaugeRuleRequiresTheWholeWindowAboveThreshold) {
  sim::Simulation sim;
  Registry registry;
  Gauge& depth = registry.gauge("depth", "test");
  SloRule rule;
  rule.name = "sustained";
  rule.kind = SloRuleKind::kGaugeAbove;
  rule.metric = "depth";
  rule.threshold = 10;
  rule.windows = {20 * sim::kMillisecond};
  SloMonitor monitor(sim, registry, one_rule(rule), {});
  monitor.start();
  // A 10 ms blip above threshold must NOT fire (window is 20 ms)...
  sim.schedule(10 * sim::kMillisecond, [&] { depth.set(50); });
  sim.schedule(20 * sim::kMillisecond, [&] { depth.set(0); });
  // ...but a 40 ms plateau from 50 ms on must.
  sim.schedule(50 * sim::kMillisecond, [&] { depth.set(50); });
  sim.schedule(90 * sim::kMillisecond, [&] { depth.set(0); });
  sim.run_until(120 * sim::kMillisecond);
  monitor.stop();
  ASSERT_TRUE(monitor.first_fire("sustained").has_value());
  EXPECT_GE(*monitor.first_fire("sustained"), 70 * sim::kMillisecond);
  EXPECT_EQ(monitor.fires(), 1u);
  EXPECT_EQ(monitor.clears(), 1u);
}

TEST(SloMonitor, AlertLogEscapesConfigSuppliedNames) {
  // Config, rule and metric names come from user JSON; the --slo-out log
  // must still parse, and give each name back unchanged.
  const std::string name = "shed \"burn\" \\ tail";
  const std::string metric = "odd \"events\"";
  sim::Simulation sim;
  Registry registry;
  Counter& events = registry.counter(metric, "test");
  SloRule rule;
  rule.name = name;
  rule.kind = SloRuleKind::kRateAbove;
  rule.metric = metric;
  rule.threshold = 0.5;
  rule.windows = {10 * sim::kMillisecond};
  SloConfig config = one_rule(rule);
  config.name = "rules \"a\\b\"";
  SloMonitor monitor(sim, registry, config, {});
  monitor.start();
  for (int t = 1; t <= 30; ++t)
    sim.schedule(static_cast<sim::Time>(t) * sim::kMillisecond,
                 [&] { events.inc(); });
  sim.run_until(40 * sim::kMillisecond);
  monitor.stop();
  ASSERT_GE(monitor.fires(), 1u);

  const std::string path = ::testing::TempDir() + "slo_escape.json";
  ASSERT_TRUE(monitor.write_json(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  std::string error;
  const auto log = json::parse(text.str(), &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_EQ(log->find("config")->string, config.name);
  const json::Value& logged_rule = log->find("rules")->array.at(0);
  EXPECT_EQ(logged_rule.find("name")->string, name);
  EXPECT_EQ(logged_rule.find("metric")->string, metric);
  EXPECT_EQ(log->find("events")->array.at(0).find("rule")->string, name);
}

// --- flight recorder ----------------------------------------------------

TEST(FlightRecorder, RingEvictsOldestFirst) {
  sim::Simulation sim;
  FlightConfig config;
  config.capacity = 4;
  FlightRecorder flight(sim, config);
  for (std::uint64_t id = 0; id < 6; ++id)
    flight.record(FlightStage::kAdmitted, id);

  EXPECT_EQ(flight.size(), 4u);
  EXPECT_EQ(flight.recorded(), 6u);
  EXPECT_EQ(flight.dropped(), 2u);
  const auto events = flight.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].id, i + 2);  // 0 and 1 evicted; oldest-first order
}

TEST(FlightRecorder, FirstTriggerWinsAndWritesTheDump) {
  const std::string path = ::testing::TempDir() + "flight_dump.json";
  sim::Simulation sim;
  FlightRecorder flight(sim);
  flight.arm(path);
  sim.schedule(3 * sim::kMillisecond,
               [&] { flight.record(FlightStage::kWatchdog, 7, "stall"); });
  sim.schedule(4 * sim::kMillisecond, [&] {
    EXPECT_TRUE(flight.trigger("slo:burn"));
    EXPECT_FALSE(flight.trigger("later"));  // counted, not dumped
  });
  sim.run_until(5 * sim::kMillisecond);

  EXPECT_TRUE(flight.triggered());
  EXPECT_EQ(flight.trigger_count(), 2u);
  EXPECT_EQ(flight.trigger_reason(), "slo:burn");
  EXPECT_EQ(flight.trigger_at(), 4 * sim::kMillisecond);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(dump.str().find("\"reason\": \"slo:burn\""), std::string::npos);
  EXPECT_NE(dump.str().find("\"stage\": \"watchdog\""), std::string::npos);
  EXPECT_NE(dump.str().find("\"note\": \"stall\""), std::string::npos);
  std::remove(path.c_str());
}

// --- end to end ---------------------------------------------------------

SloConfig watchdog_rule() {
  SloRule rule;
  rule.name = "watchdog_activity";
  rule.kind = SloRuleKind::kRateAbove;
  rule.metric = "bmac_watchdog_fires_total";
  rule.threshold = 0.5;
  rule.windows = {100 * sim::kMillisecond};
  return one_rule(std::move(rule));
}

workload::ChaosOptions chaos_options(bool partitioned) {
  workload::ChaosOptions options;
  if (partitioned) {
    std::string error;
    const auto loaded = serve::parse_scenario(R"({"name": "partition",
    "faults": {
      "seed": 4004,
      "data": {"partitions_ms": [[60, 240]]},
      "ack": {"partitions_ms": [[60, 240]]}
    }})", &error);
    EXPECT_TRUE(loaded.has_value() && loaded->faults.has_value()) << error;
    if (loaded && loaded->faults) options.scenario = *loaded->faults;
  }
  return options;
}

TEST(TelemetryEndToEnd, ChaosDegradationFiresAlertAndDumpsFlight) {
  Registry registry;
  Telemetry telemetry;
  TimeSeriesConfig sampler;
  sampler.interval = 5 * sim::kMillisecond;
  telemetry.configure(sampler, watchdog_rule());
  const workload::ChaosReport report = workload::run_chaos_scenario(
      chaos_options(/*partitioned=*/true), &registry, nullptr, &telemetry);

  EXPECT_TRUE(report.hashes_match);
  ASSERT_TRUE(telemetry.slo()->first_fire("watchdog_activity").has_value());
  // The peer trips the flight recorder at the watchdog itself, before the
  // monitor's evaluation tick can.
  EXPECT_TRUE(telemetry.flight()->triggered());
  EXPECT_NE(telemetry.flight()->trigger_reason().find("bmac:watchdog"),
            std::string::npos);
  EXPECT_LE(telemetry.flight()->trigger_at(),
            *telemetry.slo()->first_fire("watchdog_activity"));
}

TEST(TelemetryEndToEnd, CleanChaosRunFiresNothing) {
  Registry registry;
  Telemetry telemetry;
  TimeSeriesConfig sampler;
  sampler.interval = 5 * sim::kMillisecond;
  telemetry.configure(sampler, watchdog_rule());
  const workload::ChaosReport report = workload::run_chaos_scenario(
      chaos_options(/*partitioned=*/false), &registry, nullptr, &telemetry);

  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.hashes_match);
  EXPECT_EQ(telemetry.slo()->fires(), 0u);
  EXPECT_FALSE(telemetry.flight()->triggered());
  // The sampler still ran: watchdog column exists and stays at zero.
  for (const double v :
       telemetry.sampler()->values("bmac_watchdog_fires_total"))
    EXPECT_EQ(v, 0);
}

TEST(TelemetryEndToEnd, ServeReportIsIdenticalWithAndWithoutTelemetry) {
  serve::ServeOptions options;
  options.name = "blind";
  options.network.seed = 11;
  options.traffic.seed = 11 ^ 0x9E3779B97F4A7C15ull;
  options.traffic.rate_tps = 1500;
  options.duration = 150 * sim::kMillisecond;
  options.endorse.workers = 2;
  options.endorse.service_base = sim::kMillisecond;
  options.endorse.per_endorsement = 0;

  const serve::ServeReport plain = serve::run_serve(options);

  Registry registry;
  Telemetry telemetry;
  TimeSeriesConfig sampler;
  sampler.interval = 5 * sim::kMillisecond;
  SloRule rule;
  rule.name = "shed_burn";
  rule.kind = SloRuleKind::kRatio;
  rule.metric = "serve_admission_shed_total";
  rule.denominator = "serve_admission_offered_total";
  rule.threshold = 0.05;
  rule.burn_rate = 2.0;
  rule.min_count = 20;
  rule.windows = {25 * sim::kMillisecond};
  telemetry.configure(sampler, one_rule(std::move(rule)));
  const serve::ServeReport observed =
      serve::run_serve(options, &registry, nullptr, &telemetry);

  // Telemetry must be read-only with respect to the pipeline.
  EXPECT_EQ(plain.offered, observed.offered);
  EXPECT_EQ(plain.admitted, observed.admitted);
  EXPECT_EQ(plain.shed_total(), observed.shed_total());
  EXPECT_EQ(plain.timed_out, observed.timed_out);
  EXPECT_EQ(plain.committed_txs, observed.committed_txs);
  EXPECT_EQ(plain.valid_txs, observed.valid_txs);
  EXPECT_DOUBLE_EQ(plain.goodput_tps, observed.goodput_tps);
  EXPECT_DOUBLE_EQ(plain.total_ms.p99, observed.total_ms.p99);
  // And the sampler saw the run move: the admitted column is non-trivial.
  EXPECT_GT(telemetry.sampler()->sample_count(), 10u);
  EXPECT_EQ(telemetry.sampler()
                ->values("serve_admission_admitted_total")
                .back(),
            static_cast<double>(observed.admitted));
}

/// Every counter and gauge in `registry`, and every histogram's count and
/// sum, must equal the sampler's last column: the time series explains the
/// end-of-run snapshot on its own.
void expect_last_sample_matches(const Registry& registry,
                                const TimeSeriesSampler& sampler) {
  const auto expect_last = [&](const std::string& name, double want) {
    const std::vector<double> column = sampler.values(name);
    ASSERT_FALSE(column.empty()) << name << " was never sampled";
    EXPECT_EQ(column.back(), want) << name;
  };
  registry.for_each(
      [&](const std::string& name, const Counter& counter) {
        expect_last(name, static_cast<double>(counter.value()));
      },
      [&](const std::string& name, const Gauge& gauge) {
        expect_last(name, gauge.value());
      },
      [&](const std::string& name, const Histogram& histogram) {
        expect_last(name + "_count", static_cast<double>(histogram.count()));
        expect_last(name + "_sum", histogram.sum());
      });
}

TEST(TelemetryEndToEnd, LastSampleEqualsEndOfRunSnapshot) {
  TimeSeriesConfig sampler;
  sampler.interval = 5 * sim::kMillisecond;
  {
    Registry registry;
    Telemetry telemetry;
    telemetry.configure(sampler, watchdog_rule());
    const workload::ChaosReport report = workload::run_chaos_scenario(
        chaos_options(/*partitioned=*/true), &registry, nullptr, &telemetry);
    EXPECT_GT(report.data_faults.dropped_partition, 0u);
    expect_last_sample_matches(registry, *telemetry.sampler());
  }
  {
    serve::ServeOptions options;
    options.name = "snapshot";
    options.network.seed = 5;
    options.traffic.seed = 5 ^ 0x9E3779B97F4A7C15ull;
    options.traffic.rate_tps = 1500;
    options.duration = 200 * sim::kMillisecond;
    options.drain_limit = 500 * sim::kMillisecond;
    options.sessions.enabled = true;
    options.sessions.population = 100;
    options.sessions.idle_timeout = 30 * sim::kMillisecond;
    options.sessions.grace = 20 * sim::kMillisecond;
    options.sessions.wheel_granularity = sim::kMillisecond;
    Registry registry;
    Telemetry telemetry;
    telemetry.configure(sampler, std::nullopt);
    const serve::ServeReport report =
        serve::run_serve(options, &registry, nullptr, &telemetry);
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.session_stats.purged, 0u);
    expect_last_sample_matches(registry, *telemetry.sampler());
  }
}

// --- where the SLO rules come from ---------------------------------------

TEST(TelemetryConfig, SloRulesComeFromTheScenario) {
  const auto rule_names = [](const SloConfig& config) {
    std::vector<std::string> names;
    for (const SloRule& rule : config.rules) names.push_back(rule.name);
    return names;
  };
  {  // configs/slo_default.json is a scenario holding the default rules.
    std::string error;
    const auto scenario = serve::load_scenario(
        std::string(BM_REPO_ROOT) + "/configs/slo_default.json", &error);
    ASSERT_TRUE(scenario.has_value()) << error;
    ASSERT_TRUE(scenario->slo.has_value());
    EXPECT_EQ(scenario->slo->name, "bmac-default");
    sim::Simulation sim;
    Registry registry;
    Telemetry telemetry;
    telemetry.configure(cli::CommonFlags{}, scenario->slo);
    EXPECT_TRUE(telemetry.enabled());
    telemetry.attach(sim, registry, nullptr, {});
    ASSERT_NE(telemetry.slo(), nullptr);
    EXPECT_EQ(rule_names(telemetry.slo()->config()),
              rule_names(*scenario->slo));
    EXPECT_EQ(telemetry.slo()->config().rules.size(), 6u);
    telemetry.finish();
  }
  {  // No rules and no telemetry flag: the bundle stays off.
    Telemetry telemetry;
    telemetry.configure(cli::CommonFlags{}, std::nullopt);
    EXPECT_FALSE(telemetry.enabled());
  }
}

}  // namespace
}  // namespace bm::obs
