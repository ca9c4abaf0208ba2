// One composed scenario file per experiment: every `bmac_sim --scenario`
// config, and every shipped configs/*.json apart from slo_default.json.
//
// A scenario file bundles everything a run needs into a single JSON
// document with one section per subsystem:
//
//   {
//     "name": "steady_sessions",
//     "serve":      { ... },   // traffic, admission, ... (SERVING.md)
//     "sessions":   { ... },   // overrides serve.sessions when present
//     "durability": { ... },   // overrides serve.durability when present
//     "slo":        { ... },   // schema of --slo-config's file
//     "faults":     { ... },   // fault schedule (docs/FAULTS.md)
//     "cluster":    { ... }    // N-org/M-peer topology (docs/CLUSTER.md)
//   }
//
// Each section has one parser (serve/config.cpp, obs/slo.cpp,
// net/faults.cpp, cluster/config.cpp via their detail:: hooks), and
// diagnostics name the file plus full JSON path
// (`scenario.slo.rules[2].kind: ...`). configs/serve_*.json hold only a
// "serve" section and configs/faults_*.json only a "faults" section.
//
// The top-level "sessions" / "durability" sections exist so one scenario
// file can layer a session population or a durable ledger onto a shared
// base "serve" section; they win over the serve-nested equivalents.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "cluster/config.hpp"
#include "net/faults.hpp"
#include "obs/slo.hpp"
#include "serve/config.hpp"

namespace bm::serve {

struct Scenario {
  std::string name;
  ServeOptions serve;
  /// SLO rules to evaluate during the run (inline equivalent of
  /// --slo-config). nullopt when the scenario has no "slo" section.
  std::optional<obs::SloConfig> slo;
  /// Network fault schedule. nullopt when the scenario has no "faults"
  /// section; serve runs currently ignore it (the serve harness models a
  /// clean network) but `bmac_sim chaos --scenario` consumes it.
  std::optional<net::FaultScenario> faults;
  /// Cluster topology (orgs / peers / orderers / gossip / catch-up knobs).
  /// nullopt when the scenario has no "cluster" section; consumed by
  /// `bmac_sim cluster --scenario` and tests/bench building a
  /// cluster::ClusterDeployment.
  std::optional<cluster::ClusterConfig> cluster;
};

/// Parse a composed scenario from JSON text. Returns nullopt (and sets
/// *error) on malformed input.
std::optional<Scenario> parse_scenario(std::string_view text,
                                       std::string* error = nullptr);

/// Load a composed scenario file from disk.
std::optional<Scenario> load_scenario(const std::string& path,
                                      std::string* error = nullptr);

}  // namespace bm::serve
