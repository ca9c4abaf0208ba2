// End-to-end check of the observability artifacts: runs bmac_sim on a tiny
// configuration, then validates the emitted Chrome trace and metrics
// snapshot with the in-repo JSON parser. Wired into ctest (LABELS obs) so
// the artifact contract — what a user loads into Perfetto or scrapes into
// Prometheus — is covered by the default test run, not just the unit tests.
//
// Phase 2 validates the continuous-telemetry artifacts the same way: a
// scenario_burst run with --sample-interval/--slo-out/--flight-out (the
// rules come from the scenario's "slo" section) must produce a well-formed
// time series (monotone timestamps, monotone counters, aligned rate
// columns) whose last sample equals the run's --metrics-out snapshot, an
// SLO alert log with at least one fire (the burst overloads the front end
// by design), a triggered flight dump — and a byte-identical set of files
// when rerun (docs/OBSERVABILITY.md). Adding --slo-config to that run
// names the rules twice and must exit 2, and so must a flag asking a
// subcommand for an artifact it never writes, or a --scenario file without
// the section the subcommand reads.
//
// Usage: obs_selfcheck <path-to-bmac_sim> [work-dir]
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "common/json.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  ok: %s\n", what.c_str());
  } else {
    std::printf("  FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const bm::json::Value* find(const bm::json::Value& v,
                                 const char* key) {
  return v.is_object() ? v.find(key) : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using bm::json::Value;

  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-bmac_sim> [work-dir]\n", argv[0]);
    return 2;
  }
  const std::string bmac_sim = argv[1];
  const std::string dir = argc > 2 ? argv[2] : ".";
  const std::string trace_path = dir + "/obs_selfcheck_trace.json";
  const std::string metrics_path = dir + "/obs_selfcheck_metrics.json";

  const std::string cmd = "\"" + bmac_sim +
                          "\" validate --blocks 2 --block-size 8"
                          " --trace-out \"" + trace_path + "\""
                          " --metrics-out \"" + metrics_path + "\""
                          " > /dev/null 2>&1";
  std::printf("running: %s\n", cmd.c_str());
  const int rc = std::system(cmd.c_str());
  check(rc == 0, "bmac_sim exits cleanly");
  if (rc != 0) return 1;

  // --- trace ----------------------------------------------------------------
  std::string error;
  const auto trace = bm::json::parse(read_file(trace_path), &error);
  check(trace.has_value(), "trace parses as JSON (" + error + ")");
  if (!trace) return 1;

  const Value* events = find(*trace, "traceEvents");
  check(events != nullptr && events->is_array(),
        "trace has a traceEvents array");
  if (events == nullptr || !events->is_array()) return 1;
  check(!events->array.empty(), "traceEvents is non-empty");

  std::set<std::string> categories;
  std::map<std::pair<double, double>, double> last_end;  // (pid,tid) -> us
  bool spans_ordered = true;
  std::size_t spans = 0;
  for (const Value& e : events->array) {
    const Value* ph = find(e, "ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const Value* cat = find(e, "cat");
    if (cat != nullptr && cat->is_string() && !cat->string.empty())
      categories.insert(cat->string);
    if (ph->string != "X") continue;
    ++spans;
    const Value* pid = find(e, "pid");
    const Value* tid = find(e, "tid");
    const Value* ts = find(e, "ts");
    const Value* dur = find(e, "dur");
    if (pid == nullptr || tid == nullptr || ts == nullptr || dur == nullptr) {
      spans_ordered = false;
      continue;
    }
    // Complete spans on one (pid, tid) lane must not partially overlap, or
    // Perfetto renders them wrong.
    const auto key = std::make_pair(pid->number, tid->number);
    const auto it = last_end.find(key);
    if (it != last_end.end() && ts->number < it->second) spans_ordered = false;
    last_end[key] = ts->number + dur->number;
  }
  check(spans > 0, "trace contains complete ('X') spans");
  check(spans_ordered, "spans nest per (pid, tid) lane without overlap");

  std::string cat_list;
  for (const auto& c : categories) cat_list += c + " ";
  check(categories.size() >= 5,
        "trace has >= 5 span categories (got: " + cat_list + ")");
  for (const char* required :
       {"protocol", "fifo", "ecdsa", "monitor", "host-commit"}) {
    check(categories.count(required) != 0,
          std::string("trace covers category '") + required + "'");
  }

  // --- metrics --------------------------------------------------------------
  const auto metrics = bm::json::parse(read_file(metrics_path), &error);
  check(metrics.has_value(), "metrics parse as JSON (" + error + ")");
  if (!metrics) return 1;

  const Value* at_ns = find(*metrics, "at_ns");
  check(at_ns != nullptr && at_ns->is_number() && at_ns->number > 0,
        "metrics carry a positive at_ns snapshot time");

  const Value* gauges = find(*metrics, "gauges");
  const Value* util =
      gauges != nullptr ? find(*gauges, "bmac_engine_utilization") : nullptr;
  check(util != nullptr && util->is_number(),
        "metrics include the bmac_engine_utilization gauge");
  if (util != nullptr)
    check(util->number > 0 && util->number <= 1.0,
          "engine utilization is a sane fraction");

  const Value* histograms = find(*metrics, "histograms");
  const Value* latency =
      histograms != nullptr
          ? find(*histograms, "bmac_block_validation_latency_ms")
          : nullptr;
  check(latency != nullptr, "metrics include the block-latency histogram");
  if (latency != nullptr) {
    const Value* count = find(*latency, "count");
    check(count != nullptr && count->number >= 2,
          "latency histogram observed every block");
  }

  const Value* counters = find(*metrics, "counters");
  const Value* packets =
      counters != nullptr ? find(*counters, "bmac_packets_processed_total")
                          : nullptr;
  check(packets != nullptr && packets->number > 0,
        "metrics count processed packets");

  // --- phase 2: continuous telemetry ---------------------------------------
#ifdef BM_REPO_ROOT
  const std::string repo = BM_REPO_ROOT;
  const std::string ts_path = dir + "/obs_selfcheck_ts.json";
  const std::string csv_path = dir + "/obs_selfcheck_ts.csv";
  const std::string slo_path = dir + "/obs_selfcheck_slo.json";
  const std::string flight_path = dir + "/obs_selfcheck_flight.json";
  const std::string snapshot_path = dir + "/obs_selfcheck_snapshot.json";

  const auto telemetry_cmd = [&](const std::string& suffix,
                                 const std::string& extra = "") {
    return "\"" + bmac_sim + "\" serve --scenario \"" + repo +
           "/configs/scenario_burst.json\" --sample-interval 5"
           " --timeseries-out \"" + ts_path + suffix + "\""
           " --timeseries-csv \"" + csv_path + suffix + "\""
           " --slo-out \"" + slo_path + suffix + "\""
           " --flight-out \"" + flight_path + suffix + "\""
           " --metrics-out \"" + snapshot_path + suffix + "\"" + extra +
           " > /dev/null 2>&1";
  };
  std::printf("running: %s\n", telemetry_cmd("").c_str());
  const int rc2 = std::system(telemetry_cmd("").c_str());
  check(rc2 == 0, "bmac_sim serve (telemetry) exits cleanly");
  if (rc2 != 0) return 1;

  // Time series: schema + aligned, monotone columns.
  const auto ts = bm::json::parse(read_file(ts_path), &error);
  check(ts.has_value(), "timeseries parses as JSON (" + error + ")");
  if (!ts) return 1;
  const Value* schema = find(*ts, "schema_version");
  check(schema != nullptr && schema->number == 1,
        "timeseries schema_version is 1");
  const Value* kind = find(*ts, "kind");
  check(kind != nullptr && kind->string == "timeseries",
        "timeseries kind tag");
  const Value* ts_at = find(*ts, "at_ns");
  check(ts_at != nullptr && ts_at->is_array() && ts_at->array.size() > 2,
        "timeseries has > 2 samples");
  bool at_monotone = true;
  if (ts_at != nullptr && ts_at->is_array())
    for (std::size_t i = 1; i < ts_at->array.size(); ++i)
      if (ts_at->array[i].number <= ts_at->array[i - 1].number)
        at_monotone = false;
  check(at_monotone, "timeseries at_ns strictly increases");

  const Value* series = find(*ts, "series");
  check(series != nullptr && series->is_object() && !series->object.empty(),
        "timeseries has series");
  bool columns_aligned = true, counters_monotone = true, has_rates = false;
  if (series != nullptr && series->is_object()) {
    for (const auto& [name, entry] : series->object) {
      const Value* values = find(entry, "values");
      if (values == nullptr || !values->is_array() || ts_at == nullptr ||
          values->array.size() != ts_at->array.size())
        columns_aligned = false;
      const Value* type = find(entry, "type");
      const Value* rates = find(entry, "rate_per_s");
      if (type != nullptr && type->string == "counter") {
        if (rates == nullptr || !rates->is_array() || values == nullptr ||
            rates->array.size() != values->array.size())
          columns_aligned = false;
        else
          has_rates = true;
        if (values != nullptr && values->is_array())
          for (std::size_t i = 1; i < values->array.size(); ++i)
            if (values->array[i].number < values->array[i - 1].number)
              counters_monotone = false;
      }
    }
  }
  check(columns_aligned, "every series column aligns with at_ns (and rates)");
  check(counters_monotone, "counter series never decrease");
  check(has_rates, "counter series carry derived rate_per_s columns");

  // The last sample is the end-of-run snapshot: same time, same values.
  const auto snapshot = bm::json::parse(read_file(snapshot_path), &error);
  check(snapshot.has_value(), "snapshot parses as JSON (" + error + ")");
  if (!snapshot) return 1;
  const Value* snapshot_at = find(*snapshot, "at_ns");
  check(snapshot_at != nullptr && ts_at != nullptr && !ts_at->array.empty() &&
            snapshot_at->number == ts_at->array.back().number,
        "snapshot at_ns equals the last sample's at_ns");
  std::size_t compared = 0, unequal = 0;
  for (const char* group : {"counters", "gauges"}) {
    const Value* metrics_group = find(*snapshot, group);
    if (metrics_group == nullptr || series == nullptr) continue;
    for (const auto& [name, want] : metrics_group->object) {
      const Value* entry = find(*series, name.c_str());
      const Value* values = entry != nullptr ? find(*entry, "values") : nullptr;
      ++compared;
      if (values == nullptr || values->array.empty() ||
          values->array.back().number != want.number)
        ++unequal;
    }
  }
  check(compared > 0 && unequal == 0,
        "last sample equals every snapshot counter and gauge (" +
            std::to_string(unequal) + " of " + std::to_string(compared) +
            " differ)");

  // CSV: one header plus one row per sample.
  const std::string csv = read_file(csv_path);
  std::size_t csv_rows = 0;
  for (const char c : csv) csv_rows += c == '\n' ? 1 : 0;
  check(ts_at != nullptr && csv_rows == ts_at->array.size() + 1,
        "csv has one row per sample plus the header");

  // SLO alert log: the burst must trip at least one rule.
  const auto slo = bm::json::parse(read_file(slo_path), &error);
  check(slo.has_value(), "slo log parses as JSON (" + error + ")");
  if (!slo) return 1;
  const Value* slo_kind = find(*slo, "kind");
  check(slo_kind != nullptr && slo_kind->string == "slo_alerts",
        "slo log kind tag");
  const Value* fires = find(*slo, "fires");
  check(fires != nullptr && fires->number >= 1,
        "serve_burst fires at least one SLO alert");
  const Value* slo_events = find(*slo, "events");
  bool events_ordered = true;
  if (slo_events != nullptr && slo_events->is_array()) {
    double last = -1;
    for (const Value& e : slo_events->array) {
      const Value* at = find(e, "at_ns");
      if (at == nullptr || at->number < last) events_ordered = false;
      if (at != nullptr) last = at->number;
    }
  }
  check(events_ordered, "slo transitions are time-ordered");

  // Flight recorder: the first alert freezes a post-mortem.
  const auto flight = bm::json::parse(read_file(flight_path), &error);
  check(flight.has_value(), "flight dump parses as JSON (" + error + ")");
  if (!flight) return 1;
  const Value* trigger = find(*flight, "trigger");
  check(trigger != nullptr && trigger->is_object(),
        "flight dump was written by a trigger");
  if (trigger != nullptr && trigger->is_object()) {
    const Value* reason = find(*trigger, "reason");
    check(reason != nullptr &&
              reason->string.rfind("slo:", 0) == 0,
          "flight trigger names the SLO rule (" +
              (reason != nullptr ? reason->string : "<none>") + ")");
  }
  const Value* flight_events = find(*flight, "events");
  check(flight_events != nullptr && flight_events->is_array() &&
            !flight_events->array.empty(),
        "flight dump holds the pre-trigger event window");

  // Determinism: the identical command must reproduce every artifact byte
  // for byte.
  const int rc3 = std::system(telemetry_cmd(".rerun").c_str());
  check(rc3 == 0, "telemetry rerun exits cleanly");
  if (rc3 == 0) {
    for (const std::string& p :
         {ts_path, csv_path, slo_path, flight_path, snapshot_path})
      check(read_file(p) == read_file(p + ".rerun"),
            "rerun byte-identical: " + p);
  }

  // The scenario already names the rules: --slo-config on top is refused
  // (exit 2) rather than silently dropped.
  const int rc4 = std::system(
      telemetry_cmd(".twice",
                    " --slo-config \"" + repo + "/configs/slo_default.json\"")
          .c_str());
  check(WIFEXITED(rc4) && WEXITSTATUS(rc4) == 2,
        "--slo-config next to a scenario \"slo\" section exits 2");

  // --- phase 3: a flag asking for an artifact the command never writes ----
  const auto exit_code = [&](const std::string& args) {
    const int status = std::system(
        ("\"" + bmac_sim + "\" " + args + " > /dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  const std::string cluster = "cluster --blocks 4 --scenario \"" + repo +
                              "/configs/scenario_cluster.json\"";
  const std::string out = " \"" + dir + "/obs_selfcheck_phase3.json\"";
  check(exit_code(cluster + " --timeseries-out" + out + " --slo-out" + out) ==
            2,
        "cluster with telemetry flags exits 2");
  check(exit_code("validate --blocks 2 --block-size 10 --sample-interval 5"
                  " --timeseries-out" + out) == 2,
        "validate with telemetry flags exits 2");
  check(exit_code("resources --metrics-out" + out) == 2,
        "resources --metrics-out exits 2");
  check(exit_code(cluster + " --metrics-out" + out) == 0,
        "cluster --metrics-out exits 0");

  // --- phase 4: one --scenario loader, one section per command ------------
  const std::string configs = " --scenario \"" + repo + "/configs/";
  check(exit_code("resources" + configs + "serve_steady.json\"") == 2,
        "resources on a scenario without a \"bmac\" section exits 2");
  check(exit_code("resources" + configs + "bmac_drm_4org_complex.json\"") ==
            0,
        "resources on a \"bmac\" deployment exits 0");
  check(exit_code("validate --config x") == 2, "--config exits 2");
  // A policy its network cannot run fails at load and names its key.
  const std::string policy_json = dir + "/obs_selfcheck_policy.json";
  const std::string policy_err = dir + "/obs_selfcheck_policy.err";
  for (const auto& [command, json, key] :
       {std::tuple{"serve",
                   R"({"serve": {"network": {"orgs": 2,
                                             "policy": "3-outof-3 orgs"}}})",
                   "scenario.serve.network.policy: "},
        std::tuple{"cluster",
                   R"({"cluster": {"orgs": 2, "policy": "Org1 & Org3"}})",
                   "scenario.cluster.policy: "}}) {
    std::ofstream(policy_json) << json;
    const int status = std::system(("\"" + bmac_sim + "\" " + command +
                                    " --scenario \"" + policy_json +
                                    "\" > /dev/null 2> \"" + policy_err +
                                    "\"").c_str());
    check(WIFEXITED(status) && WEXITSTATUS(status) == 2 &&
              read_file(policy_err).find(key) != std::string::npos,
          std::string(command) + " with an unrunnable policy exits 2 naming " +
              key);
  }
#else
  std::printf("(phase 2 skipped: BM_REPO_ROOT not defined)\n");
#endif

  if (g_failures == 0) {
    std::printf("obs_selfcheck: all checks passed\n");
    return 0;
  }
  std::printf("obs_selfcheck: %d check(s) FAILED\n", g_failures);
  return 1;
}
