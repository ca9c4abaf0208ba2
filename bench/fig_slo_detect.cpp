// SLO detection latency: how long after a fault (or an overload) begins
// does the burn-rate monitor raise its alert, in simulated time?
// (docs/OBSERVABILITY.md)
//
// Three runs, all on the same monitor rules the tools ship by default:
//
//   clean    — steady serve traffic well under capacity. The monitor must
//              stay silent: zero fires is the false-positive check.
//   overload — open-loop traffic at 3x the endorsement knee. Admission
//              shedding starts as soon as the token bucket drains; the
//              shed_burn ratio rule must fire within its long window of
//              the first shed (detection latency, measured sample-to-fire).
//   fault    — chaos run with a data+ack partition injected at a known
//              onset. The peer's watchdog firing is the symptom; the
//              watchdog_activity rate rule must fire within its window of
//              the symptom (the flight recorder pins the symptom time).
//
// Emits the detection latencies as JSON (stdout, and --out FILE when
// given). Acceptance: clean run fires nothing, both detections are
// bounded by their rule's longest window plus one evaluation tick.
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "obs/telemetry.hpp"
#include "serve/pipeline.hpp"
#include "serve/scenario.hpp"
#include "workload/chaos.hpp"

namespace {

using namespace bm;

// The loadsweep serving configuration: 2 endorser lanes at ~1 ms/tx gives
// a ~2000 tps knee (bench/fig_serve_loadsweep.cpp).
serve::ServeOptions serve_scenario(double offered_tps) {
  serve::ServeOptions options;
  options.name = "slo_detect";
  options.network.seed = 7;
  options.traffic.seed = 7 ^ 0x9E3779B97F4A7C15ull;
  options.traffic.rate_tps = offered_tps;
  options.duration = 300 * sim::kMillisecond;
  options.admission.queue_capacity = 128;
  options.endorse.workers = 2;
  options.endorse.service_base = sim::kMillisecond;
  options.endorse.per_endorsement = 0;
  options.endorse.deadline = 50 * sim::kMillisecond;
  options.ingress.max_batch = 50;
  options.ingress.batch_timeout = 25 * sim::kMillisecond;
  return options;
}

obs::SloConfig serve_rules() {
  obs::SloConfig config;
  config.name = "slo_detect_serve";
  config.evaluation_interval = 5 * sim::kMillisecond;
  obs::SloRule shed;
  shed.name = "shed_burn";
  shed.kind = obs::SloRuleKind::kRatio;
  shed.metric = "serve_admission_shed_total";
  shed.denominator = "serve_admission_offered_total";
  shed.threshold = 0.05;
  shed.burn_rate = 2.0;
  shed.min_count = 20;
  shed.windows = {25 * sim::kMillisecond, 250 * sim::kMillisecond};
  config.rules.push_back(shed);
  return config;
}

obs::SloConfig chaos_rules() {
  obs::SloConfig config;
  config.name = "slo_detect_chaos";
  config.evaluation_interval = 5 * sim::kMillisecond;
  obs::SloRule watchdog;
  watchdog.name = "watchdog_activity";
  watchdog.kind = obs::SloRuleKind::kRateAbove;
  watchdog.metric = "bmac_watchdog_fires_total";
  watchdog.threshold = 0.5;
  watchdog.windows = {100 * sim::kMillisecond};
  config.rules.push_back(watchdog);
  return config;
}

// The faults_partition.json scenario, inlined: a data+ack partition from
// 60 ms to 240 ms plus light background loss.
constexpr sim::Time kFaultOnset = 60 * sim::kMillisecond;
constexpr const char* kPartitionScenario = R"({"name": "partition", "faults": {
  "seed": 4004,
  "data": {"loss": {"good": 0.02, "bad": 0.02}, "partitions_ms": [[60, 240]]},
  "ack": {"partitions_ms": [[60, 240]]}
}})";

obs::TimeSeriesConfig sampler_config() {
  obs::TimeSeriesConfig config;
  config.interval = 5 * sim::kMillisecond;
  return config;
}

double ms(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kMillisecond);
}

/// First sample time at which `metric` is non-zero, or -1 when it never is.
double first_nonzero_ms(const obs::TimeSeriesSampler& sampler,
                        const std::string& metric) {
  const auto values = sampler.values(metric);
  const auto& at = sampler.sample_times();
  for (std::size_t i = 0; i < values.size() && i < at.size(); ++i)
    if (values[i] > 0) return ms(at[i]);
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  cli::ArgParser parser(cli::ArgParser::Unknown::kIgnore);
  parser.add_string("--out", &out_path, "write the result JSON here too");
  parser.parse(argc, argv);

  bench::title("SLO burn-rate monitor: detection latency (sim time)");

  // --- clean: steady traffic, the monitor must stay silent ---------------
  obs::Registry clean_registry;
  obs::Telemetry clean_telemetry;
  clean_telemetry.configure(sampler_config(), serve_rules());
  const serve::ServeReport clean = serve::run_serve(
      serve_scenario(1000), &clean_registry, nullptr, &clean_telemetry);
  const std::uint64_t clean_fires = clean_telemetry.slo()->fires();
  std::printf("clean    | 1000 tps offered, %6.1f tps goodput | fires: %llu "
              "(want 0)\n",
              clean.goodput_tps,
              static_cast<unsigned long long>(clean_fires));

  // --- overload: 3x the knee, shed_burn must fire promptly ---------------
  obs::Registry over_registry;
  obs::Telemetry over_telemetry;
  over_telemetry.configure(sampler_config(), serve_rules());
  const serve::ServeReport over = serve::run_serve(
      serve_scenario(6000), &over_registry, nullptr, &over_telemetry);
  const double shed_onset_ms = first_nonzero_ms(
      *over_telemetry.sampler(), "serve_admission_shed_total");
  const auto over_fire = over_telemetry.slo()->first_fire("shed_burn");
  const double over_fire_ms = over_fire ? ms(*over_fire) : -1;
  const double over_detect_ms =
      over_fire && shed_onset_ms >= 0 ? over_fire_ms - shed_onset_ms : -1;
  std::printf("overload | 6000 tps offered, %6.1f tps goodput | first shed "
              "~%.0f ms, alert %.0f ms => detect %.0f ms\n",
              over.goodput_tps, shed_onset_ms, over_fire_ms, over_detect_ms);

  // --- fault: partition at a known onset, watchdog rule must catch it ----
  std::string fault_error;
  const auto scenario = serve::parse_scenario(kPartitionScenario, &fault_error);
  if (!scenario) {
    std::fprintf(stderr, "fault scenario: %s\n", fault_error.c_str());
    return 2;
  }
  workload::ChaosOptions chaos;
  chaos.scenario = *scenario->faults;
  obs::Registry chaos_registry;
  obs::Telemetry chaos_telemetry;
  chaos_telemetry.configure(sampler_config(), chaos_rules());
  const workload::ChaosReport chaos_report = workload::run_chaos_scenario(
      chaos, &chaos_registry, nullptr, &chaos_telemetry);
  // The peer trips the flight recorder at its first watchdog fire, which
  // timestamps the symptom exactly; the fault itself began at kFaultOnset.
  const obs::FlightRecorder* flight = chaos_telemetry.flight();
  const double symptom_ms =
      flight->triggered() ? ms(flight->trigger_at()) : -1;
  const auto chaos_fire =
      chaos_telemetry.slo()->first_fire("watchdog_activity");
  const double chaos_fire_ms = chaos_fire ? ms(*chaos_fire) : -1;
  const double chaos_detect_ms =
      chaos_fire && symptom_ms >= 0 ? chaos_fire_ms - symptom_ms : -1;
  std::printf("fault    | partition at %.0f ms, watchdog (symptom) %.0f ms, "
              "alert %.0f ms => detect %.0f ms | equivalence: %s\n",
              ms(kFaultOnset), symptom_ms, chaos_fire_ms, chaos_detect_ms,
              chaos_report.hashes_match && chaos_report.flags_match
                  ? "PASS"
                  : "FAIL");

  // Acceptance: silent when healthy, detection bounded by the rule's
  // longest window plus one evaluation tick when not.
  const double over_bound_ms = 250 + 5;
  const double chaos_bound_ms = 100 + 5;
  const bool ok = clean_fires == 0 && over_detect_ms >= 0 &&
                  over_detect_ms <= over_bound_ms && chaos_detect_ms >= 0 &&
                  chaos_detect_ms <= chaos_bound_ms &&
                  chaos_report.hashes_match && chaos_report.flags_match;
  std::printf("clean fires == 0: %s | overload detect <= %.0f ms: %s | "
              "fault detect <= %.0f ms: %s\n",
              clean_fires == 0 ? "PASS" : "FAIL", over_bound_ms,
              over_detect_ms >= 0 && over_detect_ms <= over_bound_ms
                  ? "PASS"
                  : "FAIL",
              chaos_bound_ms,
              chaos_detect_ms >= 0 && chaos_detect_ms <= chaos_bound_ms
                  ? "PASS"
                  : "FAIL");

  std::ostringstream json;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"clean\": {\"offered_tps\": 1000, \"fires\": %llu},\n"
      "  \"overload\": {\"offered_tps\": 6000, \"shed_onset_ms\": %.1f, "
      "\"first_fire_ms\": %.1f, \"detect_ms\": %.1f, \"bound_ms\": %.0f},\n"
      "  \"fault\": {\"onset_ms\": %.1f, \"symptom_ms\": %.1f, "
      "\"first_fire_ms\": %.1f, \"detect_ms\": %.1f, \"bound_ms\": %.0f},\n"
      "  \"pass\": %s\n",
      static_cast<unsigned long long>(clean_fires), shed_onset_ms,
      over_fire_ms, over_detect_ms, over_bound_ms, ms(kFaultOnset),
      symptom_ms, chaos_fire_ms, chaos_detect_ms, chaos_bound_ms,
      ok ? "true" : "false");
  json << "{\n"
       << bench::artifact_meta(
              "fig_slo_detect", 7,
              "{\"sample_interval_ms\": 5, \"evaluation_interval_ms\": 5, "
              "\"serve_duration_ms\": 300, \"partition_ms\": [60, 240]}")
       << buf << "}\n";

  std::printf("\n%s", json.str().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    out << json.str();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return ok ? 0 : 1;
}
