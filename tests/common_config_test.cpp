// Unit tests for the shared scenario-config facility (common/config.hpp):
// absent-key no-ops, ranged numerics, exact integers, required readers,
// enums, arrays, the unknown-key and repeated-key rules, and the uniform
// "<file>: <path>: <message>" diagnostic contract every JSON loader in the
// repo now relies on.
#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>

#include "net/faults.hpp"
#include "obs/slo.hpp"
#include "serve/config.hpp"
#include "serve/scenario.hpp"

namespace {

using namespace bm;

TEST(ConfigRoot, RejectsInvalidJsonWithRootLabel) {
  config::Root root = config::Root::parse("{nope", "serve");
  EXPECT_FALSE(root.ok());
  EXPECT_NE(root.error().find("serve"), std::string::npos);
  EXPECT_NE(root.error().find("invalid JSON"), std::string::npos);
  EXPECT_FALSE(root.section().present());
  // Numerals RFC 8259 forbids fail where they go wrong; its numerals load.
  const std::pair<const char*, const char*> bad_numbers[] = {
      {R"({"a": +1})", "expected a value at offset 6"},
      {R"({"a": 0300})", "leading zero in number at offset 7"},
      {R"({"a": -01})", "leading zero in number at offset 8"},
      {R"({"a": 1.})", "expected a digit after '.' at offset 8"},
      {R"({"a": .5})", "expected a value at offset 6"},
      {R"({"a": -.5})", "expected a value at offset 7"},
      {R"({"a": 1e})", "expected a digit in the exponent at offset 8"},
      {R"({"a": 1e+})", "expected a digit in the exponent at offset 9"},
  };
  for (const auto& [text, why] : bad_numbers)
    EXPECT_EQ(config::Root::parse(text, "serve").error(),
              std::string("serve: invalid JSON: ") + why);
  for (const char* text : {R"({"a": 0})", R"({"a": -0})", R"({"a": 10.25})",
                           R"({"a": -0.5e-3})", R"({"a": 1E+2})"})
    EXPECT_EQ(config::Root::parse(text, "serve").error(), "") << text;
}

TEST(ConfigRoot, RejectsNonObjectRoot) {
  config::Root root = config::Root::parse("[1, 2]", "slo");
  EXPECT_FALSE(root.ok());
  EXPECT_EQ(root.error(), "slo: expected an object");
}

TEST(ConfigRoot, FileLabelPrefixesDiagnostics) {
  config::Root root =
      config::Root::parse(R"({"rate": -1})", "serve", "bad.json");
  config::Section s = root.section();
  double rate = 5;
  s.read_number("rate", &rate, config::positive());
  EXPECT_FALSE(root.ok());
  EXPECT_EQ(root.error(), "bad.json: serve.rate: expected number > 0");
  EXPECT_EQ(rate, 5);  // failed read keeps the caller's default
}

TEST(ConfigRoot, LoadNamesMissingFile) {
  config::Root root =
      config::Root::load("/nonexistent/dir/x.json", "serve");
  EXPECT_FALSE(root.ok());
  EXPECT_EQ(root.error(), "/nonexistent/dir/x.json: cannot open file");
}

TEST(ConfigSection, AbsentReadersKeepDefaults) {
  config::Root root = config::Root::parse(R"({})", "serve");
  config::Section s = root.section();
  double num = 1.5;
  std::size_t size = 7;
  int i = -3;
  bool flag = true;
  std::string text = "keep";
  sim::Time t = 42;
  EXPECT_TRUE(s.read_number("a", &num));
  EXPECT_TRUE(s.read_size("b", &size));
  EXPECT_TRUE(s.read_int("c", &i));
  EXPECT_TRUE(s.read_bool("d", &flag));
  EXPECT_TRUE(s.read_string("e", &text));
  EXPECT_TRUE(s.read_time_ms("f", &t));
  EXPECT_EQ(num, 1.5);
  EXPECT_EQ(size, 7u);
  EXPECT_EQ(i, -3);
  EXPECT_TRUE(flag);
  EXPECT_EQ(text, "keep");
  EXPECT_EQ(t, 42);
  // An absent object's readers are no-ops too (straight-line loaders).
  config::Section missing = s.object("missing");
  EXPECT_FALSE(missing.present());
  EXPECT_TRUE(missing.read_number("x", &num));
  EXPECT_EQ(num, 1.5);
  EXPECT_TRUE(root.ok());
}

TEST(ConfigSection, NestedPathsInDiagnostics) {
  config::Root root = config::Root::parse(
      R"({"traffic": {"rates": [10, "fast"]}})", "serve");
  config::Section rates = root.section().object("traffic").array("rates");
  ASSERT_EQ(rates.array_size(), 2u);
  double v = 0;
  EXPECT_TRUE(rates.element(0).value_number(&v));
  EXPECT_EQ(v, 10);
  EXPECT_FALSE(rates.element(1).value_number(&v));
  EXPECT_EQ(root.error(), "serve.traffic.rates[1]: expected a number");
}

TEST(ConfigSection, FirstErrorWins) {
  config::Root root =
      config::Root::parse(R"({"a": "x", "b": "y"})", "serve");
  config::Section s = root.section();
  double a = 0, b = 0;
  s.read_number("a", &a);
  s.read_number("b", &b);
  EXPECT_EQ(root.error(), "serve.a: expected a number");
}

TEST(ConfigSection, RangesRender) {
  EXPECT_EQ(config::positive().describe(), "> 0");
  EXPECT_EQ(config::non_negative().describe(), ">= 0");
  EXPECT_EQ(config::unit_interval().describe(), "in [0, 1]");
  EXPECT_EQ(config::open_unit().describe(), "in (0, 1)");

  config::Root root = config::Root::parse(R"({"p": 1.5})", "slo");
  double p = 0;
  root.section().read_number("p", &p, config::unit_interval());
  EXPECT_EQ(root.error(), "slo.p: expected number in [0, 1]");
}

TEST(ConfigSection, TypeMismatchesName) {
  config::Root root = config::Root::parse(
      R"({"obj": 3, "arr": {"k": 1}, "str": 9})", "serve");
  config::Section s = root.section();
  s.object("obj");
  EXPECT_EQ(root.error(), "serve.obj: expected an object");
}

TEST(ConfigSection, RequiredReaders) {
  config::Root root = config::Root::parse(R"({"name": ""})", "slo");
  std::string name;
  root.section().require_string("name", &name);
  EXPECT_EQ(root.error(), "slo.name: expected a non-empty string");

  config::Root root2 = config::Root::parse(R"({})", "slo");
  root2.section().require_array("rules");
  EXPECT_EQ(root2.error(), "slo.rules: missing required array");

  config::Root root3 = config::Root::parse(R"({})", "slo");
  double v = 0;
  root3.section().require_number("threshold", &v);
  EXPECT_EQ(root3.error(), "slo.threshold: missing required number");
}

TEST(ConfigSection, EnumListsAcceptedSpellings) {
  enum class Color { kRed, kBlue };
  config::Root root = config::Root::parse(R"({"color": "green"})", "serve");
  Color c = Color::kRed;
  root.section().read_enum<Color>(
      "color", &c, {{"red", Color::kRed}, {"blue", Color::kBlue}});
  EXPECT_EQ(root.error(),
            "serve.color: unknown value \"green\" (red | blue)");
}

TEST(ConfigSection, BoolAcceptsOnlyTrueAndFalse) {
  config::Root root =
      config::Root::parse(R"({"a": true, "b": false, "c": 1})", "serve");
  config::Section s = root.section();
  bool a = false, b = true, c = false;
  EXPECT_TRUE(s.read_bool("a", &a));
  EXPECT_TRUE(s.read_bool("b", &b));
  EXPECT_FALSE(s.read_bool("c", &c));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(c);  // a failed read keeps the caller's default
  EXPECT_EQ(root.error(), "serve.c: expected a boolean");
}

TEST(ConfigSection, IntegersAreReadExactly) {
  config::Root root = config::Root::parse(
      R"({"a": 9007199254740993, "b": 18446744073709551615, "c": -7,
          "d": 18446744073709551616})",
      "serve");
  const config::Section s = root.section();
  std::uint64_t a = 0, b = 0, d = 5;
  int c = 0;
  EXPECT_TRUE(s.read_u64("a", &a));
  EXPECT_EQ(a, 9007199254740993u);  // 2^53 + 1: no double holds it
  EXPECT_TRUE(s.read_u64("b", &b));
  EXPECT_EQ(b, 18446744073709551615u);
  EXPECT_TRUE(s.read_int("c", &c));
  EXPECT_EQ(c, -7);
  EXPECT_FALSE(s.read_u64("d", &d));
  EXPECT_EQ(d, 5u);
  EXPECT_EQ(root.error(),
            "serve.d: expected an integer in [0, 18446744073709551615]");
}

TEST(ConfigRoot, FinishRejectsTheFirstMemberNoReaderLookedUp) {
  config::Root root = config::Root::parse(
      R"({"_doc": "comment", "a": 1, "b": {"c": 2, "_note": 0, "d": 3},
          "e": [{"f": 4}]})",
      "serve", "x.json");
  const config::Section s = root.section();
  double v = 0;
  s.read_number("a", &v);
  s.object("b").read_number("c", &v);
  s.array("e").element(0).read_number("f", &v);
  EXPECT_FALSE(root.finish());
  EXPECT_EQ(root.error(), "x.json: serve.b.d: unknown key");
}

TEST(ConfigRoot, FinishWalksArraysAndSkipsComments) {
  config::Root root = config::Root::parse(
      R"({"rules": [{"k": 1}, {"k": 2, "typo": 3}], "_doc": {"x": 1}})",
      "slo");
  const config::Section rules = root.section().array("rules");
  double v = 0;
  for (std::size_t i = 0; i < rules.array_size(); ++i)
    rules.element(i).read_number("k", &v);
  EXPECT_FALSE(root.finish());
  EXPECT_EQ(root.error(), "slo.rules[1].typo: unknown key");
}

TEST(ConfigRoot, FinishKeepsTheFirstError) {
  config::Root root =
      config::Root::parse(R"({"rate": -1, "typo": 1})", "serve");
  double rate = 0;
  root.section().read_number("rate", &rate, config::positive());
  EXPECT_FALSE(root.finish());
  EXPECT_EQ(root.error(), "serve.rate: expected number > 0");

  // A key written twice fails when read and keeps the caller's default.
  config::Root twice = config::Root::parse(R"({"a": 1, "a": 2})", "serve");
  twice.section().read_number("a", &rate);
  EXPECT_FALSE(twice.finish());
  EXPECT_EQ(twice.error(), "serve.a: repeated key");
  EXPECT_EQ(rate, 0);
}

TEST(ConfigSection, TimeReadersConvertUnits) {
  config::Root root =
      config::Root::parse(R"({"ms": 2.5, "us": 150})", "serve");
  sim::Time ms = 0, us = 0;
  root.section().read_time_ms("ms", &ms);
  root.section().read_time_us("us", &us);
  EXPECT_EQ(ms, static_cast<sim::Time>(2.5 * sim::kMillisecond));
  EXPECT_EQ(us, 150 * sim::kMicrosecond);
}

// --- migrated-loader diagnostics -------------------------------------------
// The serve / slo / faults sections all ride the facility through the
// composed scenario loader; pin the path shape of their messages so
// regressions in any one section's wiring show up as a text diff here.

TEST(MigratedLoaders, ServeDiagnosticNamesPath) {
  struct Case {
    const char* json;
    const char* diagnostic;
  };
  const Case cases[] = {
      {R"({"serve": {"traffic": {"rate_tps": -5}}})",
       "scenario.serve.traffic.rate_tps: expected number > 0"},
      {R"({"sessions": {"population": 1e30}})",
       "scenario.sessions.population: expected an integer in "
       "[1, 18446744073709551615]"},
      {R"({"serve": {"seed": 18446744073709551616}})",
       "scenario.serve.seed: expected an integer in "
       "[0, 18446744073709551615]"},
      {R"({"sessions": {"enabled": 1}})",
       "scenario.sessions.enabled: expected a boolean"},
      {R"({"durability": {"fsync_each_block": 0}})",
       "scenario.durability.fsync_each_block: expected a boolean"},
      {R"({"serve": {"network": {"orgs": 2, "policy": "3-outof-3 orgs"}}})",
       "scenario.serve.network.policy: does not parse against Org1..Org2: "
       "policy needs more orgs than the network has at offset 11"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(serve::parse_scenario(c.json, &error).has_value()) << c.json;
    EXPECT_EQ(error, c.diagnostic) << c.json;
  }
}

TEST(MigratedLoaders, SloDiagnosticNamesRuleIndex) {
  std::string error;
  auto scenario = serve::parse_scenario(
      R"({"slo": {"rules": [{"name": "r", "metric": "m", "kind": "bogus"}]}})",
      &error);
  EXPECT_FALSE(scenario.has_value());
  EXPECT_EQ(error,
            "scenario.slo.rules[0].kind: unknown value \"bogus\" (ratio | "
            "rate_above | gauge_above | latency_quantile)");
}

TEST(MigratedLoaders, FaultsDiagnosticNamesDirection) {
  std::string error;
  auto scenario = serve::parse_scenario(
      R"({"faults": {"data": {"loss": {"good": 2.0}}}})", &error);
  EXPECT_FALSE(scenario.has_value());
  EXPECT_EQ(error, "scenario.faults.data.loss.good: expected number in [0, 1]");
}

TEST(MigratedLoaders, ScenarioDiagnosticNamesSection) {
  std::string error;
  auto scenario = serve::parse_scenario(
      R"({"serve": {"duration_ms": 0}})", &error);
  EXPECT_FALSE(scenario.has_value());
  EXPECT_EQ(error, "scenario.serve.duration_ms: expected number > 0");
}

TEST(Scenario, ComposesSections) {
  std::string error;
  auto scenario = serve::parse_scenario(R"({
    "name": "combo",
    "serve": {
      "duration_ms": 500,
      "traffic": {"rate_tps": 1200},
      "admission": {"classes": 2}
    },
    "sessions": {"enabled": true, "rate_classes": 4, "population": 99},
    "durability": {"ledger_path": "x.log", "snapshot_interval": 5,
                   "fsync_each_block": true},
    "slo": {"rules": [{"name": "r", "kind": "gauge_above",
                       "metric": "m", "threshold": 3, "windows_ms": [10]}]},
    "faults": {"seed": 9, "data": {"loss": {"good": 0.25}}}
  })",
                                        &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->name, "combo");
  EXPECT_EQ(scenario->serve.name, "combo");
  EXPECT_EQ(scenario->serve.duration, 500 * sim::kMillisecond);
  EXPECT_EQ(scenario->serve.traffic.rate_tps, 1200);
  EXPECT_TRUE(scenario->serve.sessions.enabled);
  EXPECT_EQ(scenario->serve.sessions.rate_classes, 4);
  EXPECT_EQ(scenario->serve.sessions.population, 99u);
  // The file's value: the run raises the class count to cover every rate
  // class when it sizes its admission queue.
  EXPECT_EQ(scenario->serve.admission.classes, 2);
  EXPECT_EQ(scenario->serve.network.durability.ledger_path, "x.log");
  EXPECT_EQ(scenario->serve.network.durability.snapshot_interval, 5u);
  EXPECT_TRUE(scenario->serve.network.durability.fsync_each_block);
  ASSERT_TRUE(scenario->slo.has_value());
  ASSERT_EQ(scenario->slo->rules.size(), 1u);
  EXPECT_EQ(scenario->slo->rules[0].name, "r");
  ASSERT_TRUE(scenario->faults.has_value());
  EXPECT_EQ(scenario->faults->data.loss_good, 0.25);
  EXPECT_EQ(scenario->faults->data.seed, 9u);
  // The ack direction is decorrelated from the same top-level seed.
  EXPECT_EQ(scenario->faults->ack.seed, 9u ^ 0x9E3779B97F4A7C15ull);
}

TEST(Scenario, SectionsAreOptional) {
  std::string error;
  auto scenario = serve::parse_scenario(R"({"name": "bare"})", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_FALSE(scenario->slo.has_value());
  EXPECT_FALSE(scenario->faults.has_value());
  EXPECT_FALSE(scenario->serve.sessions.enabled);
}

TEST(Scenario, ShippedScenarioConfigsLoad) {
  // Every shipped config and benchmark input, so a deleted spelling one of
  // them still uses fails here rather than in a benchmark run.
  namespace fs = std::filesystem;
  std::size_t loaded = 0;
  for (const char* dir : {"/configs", "/perfbench/scenarios"}) {
    for (const auto& entry :
         fs::directory_iterator(std::string(BM_REPO_ROOT) + dir)) {
      if (entry.path().extension() != ".json") continue;
      const std::string path = entry.path().string();
      std::string error;
      auto scenario = serve::load_scenario(path, &error);
      ASSERT_TRUE(scenario.has_value()) << path << ": " << error;
      ++loaded;
      const std::string name = entry.path().filename().string();
      if (name.rfind("scenario_", 0) == 0 && !scenario->cluster) {
        EXPECT_TRUE(scenario->serve.sessions.enabled) << path;
        ASSERT_TRUE(scenario->slo.has_value()) << path;
        EXPECT_FALSE(scenario->slo->rules.empty()) << path;
      }
      if (name.rfind("bmac_", 0) == 0) {
        ASSERT_TRUE(scenario->bmac.has_value()) << path;
        EXPECT_EQ(scenario->bmac->hw.name(), "8x2") << path;
      }
      // Every serve, chaos and cluster input names its run at the top.
      if (name.rfind("serve_", 0) == 0 || name.rfind("faults_", 0) == 0 ||
          scenario->cluster) {
        EXPECT_FALSE(scenario->name.empty()) << path;
      }
    }
  }
  EXPECT_GE(loaded, 14u);
}

TEST(Scenario, UnknownAndRepeatedMembersFailWithTheirPath) {
  struct Case {
    const char* json;
    const char* diagnostic;
  };
  const Case cases[] = {
      {R"({"serve": {"traffic": {"rate_tp": 900}}})",
       "scenario.serve.traffic.rate_tp: unknown key"},
      {R"({"sessions": {"enabled": true, "populaton": 10}})",
       "scenario.sessions.populaton: unknown key"},
      {R"({"slo": {"rules": [{"name": "r", "kind": "gauge_above",
                              "metric": "m", "threshold": 3,
                              "windows_ms": [10], "widow": 1}]}})",
       "scenario.slo.rules[0].widow: unknown key"},
      {R"({"faults": {"data": {"loss": {"good": 0.1, "bda": 0.2}}}})",
       "scenario.faults.data.loss.bda: unknown key"},
      {R"({"cluster": {"orgs": 2, "peer_per_org": 3}})",
       "scenario.cluster.peer_per_org: unknown key"},
      {R"({"serv": {}})", "scenario.serv: unknown key"},
      // One key path per setting: the second spellings are unknown keys.
      {R"({"serve": {"sessions": {"enabled": true}}})",
       "scenario.serve.sessions: unknown key"},
      {R"({"serve": {"durability": {"ledger_path": "x.log"}}})",
       "scenario.serve.durability: unknown key"},
      {R"({"durability": {"snapshot_interval_blocks": 5}})",
       "scenario.durability.snapshot_interval_blocks: unknown key"},
      {R"({"serve": {"name": "x"}})", "scenario.serve.name: unknown key"},
      {R"({"faults": {"name": "x"}})", "scenario.faults.name: unknown key"},
      {R"({"cluster": {"name": "x"}})", "scenario.cluster.name: unknown key"},
      {R"({"cluster": {"data_dir": "/tmp/x"}})",
       "scenario.cluster.data_dir: unknown key"},
      // Settings no shipped workload set are constants now.
      {R"({"serve": {"traffic": {"peak_rate_tps": 3000}}})",
       "scenario.serve.traffic.peak_rate_tps: unknown key"},
      {R"({"serve": {"traffic": {"period_ms": 1000}}})",
       "scenario.serve.traffic.period_ms: unknown key"},
      {R"({"serve": {"traffic": {"process": "diurnal"}}})",
       "scenario.serve.traffic.process: unknown value \"diurnal\" "
       "(poisson | mmpp)"},
      {R"({"serve": {"network": {"bad_signature_rate": 0.1}}})",
       "scenario.serve.network.bad_signature_rate: unknown key"},
      {R"({"serve": {"network": {"missing_endorsement_rate": 0.1}}})",
       "scenario.serve.network.missing_endorsement_rate: unknown key"},
      {R"({"serve": {"network": {"conflicting_read_rate": 0.1}}})",
       "scenario.serve.network.conflicting_read_rate: unknown key"},
      {R"({"cluster": {"policy": "2-outof-2 orgs"}})",
       "scenario.cluster.policy: unknown key"},
      {R"({"cluster": {"delivery_delay_us": 300}})",
       "scenario.cluster.delivery_delay_us: unknown key"},
      {R"({"cluster": {"raft": {"message_delay_us": 500}}})",
       "scenario.cluster.raft.message_delay_us: unknown key"},
      {R"({"cluster": {"raft": {"message_jitter_us": 200}}})",
       "scenario.cluster.raft.message_jitter_us: unknown key"},
      {R"({"cluster": {"gossip": {"hop_delay_us": 300}}})",
       "scenario.cluster.gossip.hop_delay_us: unknown key"},
      {R"({"cluster": {"gossip": {"hop_jitter_us": 200}}})",
       "scenario.cluster.gossip.hop_jitter_us: unknown key"},
      {R"({"slo": {"rules": [{"name": "r", "kind": "ratio", "metric": "m",
                              "denominator": "d", "objective": 0.1,
                              "threshold": 0.1, "windows_ms": [10]}]}})",
       "scenario.slo.rules[0].threshold: unknown key"},
      {R"({"slo": {"rules": [{"name": "r", "kind": "gauge_above",
                              "metric": "m", "threshold": 3, "objective": 3,
                              "windows_ms": [10]}]}})",
       "scenario.slo.rules[0].objective: unknown key"},
      // A key written twice in one object, at any depth.
      {R"({"name": "a", "name": "b"})", "scenario.name: repeated key"},
      {R"({"serve": {"seed": 1, "seed": 2}})",
       "scenario.serve.seed: repeated key"},
      {R"({"serve": {}, "serve": {}})", "scenario.serve: repeated key"},
      {R"({"slo": {"rules": [{"name": "r", "name": "s"}]}})",
       "scenario.slo.rules[0].name: repeated key"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(serve::parse_scenario(c.json, &error).has_value()) << c.json;
    EXPECT_EQ(error, c.diagnostic) << c.json;
  }

  // `_`-prefixed members are comments at any depth.
  std::string error;
  auto scenario = serve::parse_scenario(
      R"({"_doc": "top", "serve": {"_doc": "x", "traffic": {"_why": 1}},
          "slo": {"_doc": "y", "rules": [{"_doc": "z", "name": "r",
                  "kind": "gauge_above", "metric": "m", "threshold": 3,
                  "windows_ms": [10]}]}})",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->slo->rules.size(), 1u);
}

TEST(Scenario, ClusterSectionParses) {
  std::string error;
  auto scenario = serve::parse_scenario(R"({
    "name": "cluster-combo",
    "cluster": {
      "orgs": 3,
      "peers_per_org": 2,
      "orderers": 5,
      "block_size": 16,
      "seed": 9007199254740993,
      "submit_interval_ms": 4,
      "raft": {"election_timeout_min_ms": 100, "election_timeout_max_ms": 250,
               "heartbeat_ms": 40, "message_loss": 0.01},
      "gossip": {"fanout": 3, "gbps": 2.5, "anti_entropy_ms": 25,
                 "loss": 0.1},
      "snapshot_interval": 8,
      "catch_up_threshold": 6,
      "transfer_gbps": 10,
      "transfer_rtt_ms": 2
    }
  })",
                                        &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  ASSERT_TRUE(scenario->cluster.has_value());
  const cluster::ClusterConfig& c = *scenario->cluster;
  EXPECT_EQ(c.orgs, 3);
  EXPECT_EQ(c.peers_per_org, 2);
  EXPECT_EQ(c.orderers, 5);
  EXPECT_EQ(c.block_size, 16u);
  EXPECT_EQ(c.seed, 9007199254740993u);  // 2^53 + 1: read exactly
  EXPECT_EQ(c.submit_interval, 4 * sim::kMillisecond);
  EXPECT_EQ(c.ordering.raft.election_timeout_min, 100 * sim::kMillisecond);
  EXPECT_EQ(c.ordering.raft.election_timeout_max, 250 * sim::kMillisecond);
  EXPECT_EQ(c.ordering.raft.heartbeat_interval, 40 * sim::kMillisecond);
  // raft.message_loss builds a uniform-loss fault schedule for the
  // orderer-to-orderer messages, seeded apart from gossip's.
  EXPECT_TRUE(c.ordering.faults.any());
  EXPECT_EQ(c.ordering.faults.loss_good, 0.01);
  EXPECT_EQ(c.ordering.faults.loss_bad, 0.01);
  EXPECT_EQ(c.ordering.faults.seed, 9007199254740993u ^ 0x7AF71055ull);
  EXPECT_EQ(c.gossip.fanout, 3);
  EXPECT_EQ(c.gossip.gbps, 2.5);
  EXPECT_EQ(c.gossip.anti_entropy_interval, 25 * sim::kMillisecond);
  // gossip.loss > 0 arms a uniform-loss fault schedule on its own stream,
  // decorrelated from the topology seed.
  EXPECT_TRUE(c.gossip.faults.any());
  EXPECT_EQ(c.gossip.faults.loss_good, 0.1);
  EXPECT_EQ(c.gossip.faults.seed, 9007199254740993u ^ 0xC0551Full);
  EXPECT_EQ(c.snapshot_interval, 8u);
  EXPECT_EQ(c.catch_up_threshold, 6u);
  EXPECT_EQ(c.transfer_gbps, 10.0);
  EXPECT_EQ(c.transfer_rtt, 2 * sim::kMillisecond);
  EXPECT_EQ(c.peer_count(), 6);
}

TEST(Scenario, ClusterSectionIsOptional) {
  std::string error;
  auto scenario = serve::parse_scenario(R"({"name": "bare"})", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_FALSE(scenario->cluster.has_value());
}

TEST(Scenario, ClusterDiagnosticsNameTheKeyPath) {
  struct Case {
    const char* json;
    const char* diagnostic;
  };
  const Case cases[] = {
      {R"({"cluster": {"orgs": 0}})",
       "scenario.cluster.orgs: expected an integer in [1, 255]"},
      // An integer key never reaches its cast with a fraction or a number
      // outside its type.
      {R"({"cluster": {"orgs": 1e20}})",
       "scenario.cluster.orgs: expected an integer in [1, 255]"},
      {R"({"cluster": {"orgs": 2.7}})",
       "scenario.cluster.orgs: expected an integer in [1, 255]"},
      {R"({"cluster": {"seed": 18446744073709551616}})",
       "scenario.cluster.seed: expected an integer in "
       "[0, 18446744073709551615]"},
      {R"({"cluster": {"seed": 2.5}})",
       "scenario.cluster.seed: expected an integer in "
       "[0, 18446744073709551615]"},
      {R"({"cluster": {"block_size": -1}})",
       "scenario.cluster.block_size: expected an integer in "
       "[1, 18446744073709551615]"},
      // Orderer identities number 1..15 within each org.
      {R"({"cluster": {"orgs": 1, "orderers": 16}})",
       "scenario.cluster.orderers: expected an integer in [1, 15]"},
      {R"({"cluster": {"orgs": 2, "orderers": 31}})",
       "scenario.cluster.orderers: expected an integer in [1, 30]"},
      {R"({"cluster": {"gossip": {"fanout": 0}}})",
       "scenario.cluster.gossip.fanout: expected an integer in "
       "[1, 2147483647]"},
      {R"({"cluster": {"gossip": {"loss": 1.5}}})",
       "scenario.cluster.gossip.loss: expected number in [0, 1]"},
      {R"({"cluster": {"raft": {"election_timeout_min_ms": 300,
                                "election_timeout_max_ms": 200}}})",
       "scenario.cluster.raft.election_timeout_max_ms: "
       "must be >= election_timeout_min_ms"},
      {R"({"cluster": {"catch_up_threshold": 0}})",
       "scenario.cluster.catch_up_threshold: expected an integer in "
       "[1, 18446744073709551615]"},
      {R"({"cluster": []})", "scenario.cluster: expected an object"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto scenario = serve::parse_scenario(c.json, &error);
    EXPECT_FALSE(scenario.has_value()) << c.json;
    EXPECT_EQ(error, c.diagnostic) << c.json;
  }
}

TEST(Scenario, ShippedClusterScenarioLoads) {
  std::string error;
  auto scenario = serve::load_scenario(
      std::string(BM_REPO_ROOT) + "/configs/scenario_cluster.json", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->name, "cluster_2x2");
  ASSERT_TRUE(scenario->cluster.has_value());
  EXPECT_EQ(scenario->cluster->orgs, 2);
  EXPECT_EQ(scenario->cluster->peers_per_org, 2);
  EXPECT_EQ(scenario->cluster->orderers, 3);
  EXPECT_TRUE(scenario->cluster->gossip.faults.any());
}

}  // namespace
