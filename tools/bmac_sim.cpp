// bmac_sim: command-line driver for the Blockchain Machine simulator.
//
// Subcommands:
//   throughput [--scenario FILE] [--blocks N] [--block-size N] [--vcpus N]
//       Run the saturating workload on the deployment's hardware
//       architecture and print BMac vs software-peer performance.
//   resources [--scenario FILE]
//       FPGA resource estimate (Table 1 style) for the deployment's
//       architecture and its compiled policy circuit.
//   validate [--scenario FILE] [--blocks N] [--block-size N] [--faults]
//            [--ledger FILE] [--snapshot-interval N]
//       Run real endorsed blocks through both validators end to end and
//       report the §4.1 consistency check. --ledger FILE persists the
//       committed chain to an on-disk block log, cutting a StateDb
//       snapshot every --snapshot-interval N blocks (docs/DURABILITY.md).
//   recover --ledger FILE
//       Rebuild ledger + world state from a block log written by a
//       --ledger run (newest intact snapshot + replay, falling back to a
//       full replay) and print the recovered chain position.
//   protocol [--scenario FILE] [--block-size N]
//       BMac protocol vs Gossip block sizes on real marshaled blocks.
//   chaos --scenario FILE [--blocks N] [--block-size N] [--tamper]
//       Drive the degraded-path stack (GBN + fault injection + software
//       fallback) with a fault schedule and check the committed chain
//       against the fault-free reference (docs/FAULTS.md). --scenario takes
//       a composed scenario file (configs/faults_*.json ship one each) and
//       reads its "faults" (and "slo" and "bmac") sections; its top-level
//       "name" labels the run.
//   serve [--scenario FILE]
//       Run the open-loop client-serving front end (traffic -> admission ->
//       endorse -> order -> commit, docs/SERVING.md) and print the SLO
//       report. --scenario takes a composed scenario file such as
//       configs/scenario_*.json or configs/serve_*.json (serve + sessions +
//       durability + slo sections, docs/SERVING.md); without it, or
//       without a "serve" section, a built-in steady Poisson scenario is
//       used (configs/slo_default.json runs the default SLO rules on it).
//       Every run replays its committed chain through an independent
//       validator ("flags match").
//   cluster [--scenario FILE] [--blocks N] [--kill-leader] [--data-dir DIR]
//       Run an N-org/M-peer deployment with a Raft ordering cluster,
//       payload gossip and peer state transfer (docs/CLUSTER.md), checking
//       every peer against the single-peer reference commit-hash chain.
//       --scenario reads the "cluster" section of a composed scenario file
//       (configs/scenario_cluster.json); --kill-leader crashes the Raft
//       leader mid-run; --data-dir (the only source of the data
//       directory) enables per-peer durable logs + snapshot-based catch-up.
//       Exit code 0 iff the cluster converged.
//
// Observability: --trace-out FILE writes a Chrome trace-event JSON of the
// whole run (throughput, validate, chaos, serve); --metrics-out FILE writes
// a JSON metrics snapshot; --metrics-text FILE writes the same snapshot in
// Prometheus text format (all but resources and protocol). Asking a command
// for an artifact it never writes exits 2. Outputs are deterministic: two
// identical invocations produce byte-identical files. When the first
// argument is an option, the command defaults to `validate`.
//
// Continuous telemetry (chaos and serve, docs/OBSERVABILITY.md):
// --sample-interval MS samples every metric on the simulated clock into
// --timeseries-out / --timeseries-csv; the scenario's "slo" section
// supplies the SLO burn-rate rules evaluated during the run (--slo-out
// writes the alert log); --flight-out FILE arms the per-transaction flight
// recorder, dumped at the first SLO alert / watchdog fire / fallback
// activation.
//
// Every command takes one --scenario file (composed JSON, serve/scenario.hpp)
// and reads the section it needs: "bmac" (the deployment: orgs, chaincode,
// policy, hardware; configs/bmac_*.json) for throughput, resources, validate
// and protocol, "faults" for chaos, "cluster" for cluster. A file without
// that section exits 2. Without --scenario, the built-in two-org smallbank
// deployment on the default 8x2 architecture is used.
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "bmac/peer.hpp"
#include "bmac/resource_model.hpp"
#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/hex.hpp"
#include "fabric/validator.hpp"
#include "obs/artifacts.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/config.hpp"
#include "serve/pipeline.hpp"
#include "serve/scenario.hpp"
#include "workload/chaos.hpp"
#include "workload/network_harness.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace bm;

struct Options {
  std::string command;
  int blocks = 40;
  int block_size = 150;
  int vcpus = 8;
  bool faults = false;
  bool tamper = false;
  std::string scenario_path;  ///< composed configs/scenario_*.json
  std::string ledger_path;   ///< on-disk block log (validate writes, recover reads)
  std::size_t snapshot_interval = 0;  ///< StateDb snapshot cadence (0 = never)
  bool kill_leader = false;  ///< cluster: crash the Raft leader mid-run
  std::string data_dir;      ///< cluster: per-peer durable logs + snapshots
  cli::CommonFlags flags;  ///< shared --trace-out/--metrics-*/telemetry
  std::string usage;       ///< flag help lines, filled by parse_args
};

/// The exit-2 line for flags that ask `command` for an observability
/// artifact it never writes; empty when it writes everything asked for.
std::string refused_artifacts(const std::string& command,
                              const cli::CommonFlags& flags) {
  if ((command == "throughput" || command == "validate") &&
      flags.wants_telemetry())
    return command + " writes only --trace-out and --metrics-out/-text";
  if ((command == "cluster" || command == "recover") &&
      (flags.wants_telemetry() || !flags.trace_out.empty()))
    return command + " writes only --metrics-out/-text";
  if ((command == "resources" || command == "protocol") && flags.wants_obs())
    return command + " writes no observability artifact";
  return "";
}

bool parse_args(int argc, char** argv, Options& options) {
  cli::ArgParser parser;
  parser.add_int("--blocks", &options.blocks, "blocks to run");
  parser.add_int("--block-size", &options.block_size, "transactions per block");
  parser.add_int("--vcpus", &options.vcpus, "software peer vCPUs");
  bool faults_flag = false, tamper_flag = false;
  parser.add_flag("--faults", &faults_flag, "inject invalid transactions");
  parser.add_flag("--tamper", &tamper_flag, "corrupt the last block's signature");
  parser.add_string("--scenario", &options.scenario_path,
                    "composed scenario JSON (configs/*.json)");
  parser.add_string("--ledger", &options.ledger_path,
                    "on-disk block log (validate writes it, recover reads it)");
  parser.add_size("--snapshot-interval", &options.snapshot_interval,
                  "cut a StateDb snapshot every N blocks (0 = never)");
  bool kill_leader_flag = false;
  parser.add_flag("--kill-leader", &kill_leader_flag,
                  "cluster: crash the Raft leader mid-run");
  parser.add_string("--data-dir", &options.data_dir,
                    "cluster: directory for per-peer durable logs");
  options.flags.register_with(parser);
  options.usage = parser.help_text();

  if (argc < 2) return false;
  int start = 2;
  if (argv[1][0] == '-') {
    // Plain `bmac_sim --trace-out t.json` etc.: default to the end-to-end
    // validate run, which exercises every pipeline stage.
    options.command = "validate";
    start = 1;
  } else {
    options.command = argv[1];
  }
  if (!parser.parse(argc, argv, start)) {
    std::fprintf(stderr, "%s\n", parser.error().c_str());
    return false;
  }
  options.faults = faults_flag;
  options.tamper = tamper_flag;
  options.kill_leader = kill_leader_flag;
  return true;
}

/// The section of a composed scenario `command` reads when `scenario`
/// lacks it, else null: a --scenario file without it exits 2.
const char* missing_section(const std::string& command,
                            const serve::Scenario& scenario) {
  if (command == "chaos") return scenario.faults ? nullptr : "faults";
  if (command == "cluster") return scenario.cluster ? nullptr : "cluster";
  if (command == "serve" || command == "recover") return nullptr;
  return scenario.bmac ? nullptr : "bmac";
}

/// The one --scenario loader. Without the flag every command runs on a
/// default-constructed Scenario. Prints one line and returns nullopt (exit
/// 2) when the file does not load or lacks the command's section.
std::optional<serve::Scenario> load_scenario(const Options& options) {
  if (options.scenario_path.empty()) return serve::Scenario{};
  std::string error;
  auto loaded = serve::load_scenario(options.scenario_path, &error);
  if (!loaded) {
    std::fprintf(stderr, "cannot load %s: %s\n", options.scenario_path.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  if (const char* section = missing_section(options.command, *loaded)) {
    std::fprintf(stderr, "%s: %s needs a \"%s\" section\n",
                 options.scenario_path.c_str(), options.command.c_str(),
                 section);
    return std::nullopt;
  }
  return loaded;
}

int cmd_throughput(const Options& options, const serve::Scenario& scenario) {
  const auto deployment = scenario.bmac.value_or(workload::Deployment{});
  // The harness names the orgs and parses the policy as every run does.
  const workload::FabricNetworkHarness harness(deployment.network);

  workload::SyntheticSpec spec;
  spec.blocks = options.blocks;
  spec.block_size = options.block_size;
  spec.chaincode = harness.chaincode_name();
  spec.policy_text = deployment.network.policy_text;
  spec.org_count = deployment.network.orgs;
  // Attach one endorsement per policy principal, like the paper's clients.
  spec.ends_attached = static_cast<int>(
      harness.policies().at(spec.chaincode).principals().size());
  spec.hw = deployment.hw;

  obs::Registry registry;
  obs::Tracer tracer;
  if (options.flags.wants_obs()) {
    tracer.begin_process("bmac " + spec.hw.name());
    spec.registry = &registry;
    spec.tracer = &tracer;
  }
  const auto hw = workload::run_hw_workload(spec);
  const auto sw = workload::run_sw_model(spec, options.vcpus);
  std::printf("chaincode '%s', policy \"%s\", block size %d, %d blocks\n",
              spec.chaincode.c_str(), spec.policy_text.c_str(),
              options.block_size, options.blocks);
  std::printf("BMac peer (%s):   %9.0f tps | block latency %6.2f ms | tx "
              "latency %4.0f us\n",
              spec.hw.name().c_str(), hw.tps, hw.block_latency_ms,
              hw.tx_latency_us);
  std::printf("sw validator (%2d vCPUs): %6.0f tps | block latency %6.1f ms\n",
              options.vcpus, sw.validator_tps, sw.block_latency_ms);
  std::printf("endorser    (%2d vCPUs): %7.0f tps\n", options.vcpus,
              sw.endorser_tps);
  std::printf("speedup: %.1fx | hw signatures executed %llu, skipped %llu\n",
              hw.tps / sw.validator_tps,
              static_cast<unsigned long long>(hw.ecdsa_executed),
              static_cast<unsigned long long>(hw.ecdsa_skipped));
  if (options.flags.wants_obs()) {
    const auto at =
        static_cast<sim::Time>(hw.sim_seconds * sim::kSecond);
    return obs::write_artifacts(options.flags, registry, tracer, at);
  }
  return 0;
}

int cmd_resources(const Options&, const serve::Scenario& scenario) {
  const auto deployment = scenario.bmac.value_or(workload::Deployment{});
  const workload::FabricNetworkHarness harness(deployment.network);
  const auto circuits =
      bmac::compile_policies(harness.policies(), harness.msp());

  const bmac::ResourceModel model;
  const auto usage = model.estimate(deployment.hw, circuits);
  std::printf("architecture %s on Alveo U250:\n",
              deployment.hw.name().c_str());
  std::printf("  LUT  %6.1f%%   FF  %6.1f%%   BRAM %6.1f%%   URAM %6.1f%%\n",
              usage.lut_pct(), usage.ff_pct(), usage.bram_pct(),
              usage.uram_pct());
  std::printf("module breakdown:\n");
  for (const auto& module : model.breakdown(deployment.hw, circuits))
    std::printf("  %-66s LUT %8llu  FF %8llu\n", module.name.c_str(),
                static_cast<unsigned long long>(module.lut),
                static_cast<unsigned long long>(module.ff));
  return 0;
}

int cmd_validate(const Options& options, const serve::Scenario& scenario) {
  const auto deployment = scenario.bmac.value_or(workload::Deployment{});
  workload::NetworkOptions net_options = deployment.network;
  net_options.block_size = static_cast<std::size_t>(options.block_size);
  if (options.faults) {
    net_options.bad_signature_rate = 0.1;
    net_options.missing_endorsement_rate = 0.1;
    net_options.conflicting_read_rate = 0.15;
  }
  if (!options.ledger_path.empty()) {
    net_options.durability.ledger_path = options.ledger_path;
    net_options.durability.snapshot_interval = options.snapshot_interval;
  }
  workload::FabricNetworkHarness harness(net_options);

  fabric::StateDb sw_db;
  fabric::Ledger sw_ledger;
  // The software peer; its worker count (BM_VALIDATOR_THREADS) never
  // changes the consistency check below.
  fabric::SoftwareValidator sw(harness.msp(), harness.policies());

  sim::Simulation sim;
  bmac::BmacPeer peer(sim, harness.msp(), deployment.hw, harness.policies());
  obs::Registry registry;
  obs::Tracer tracer;
  if (options.flags.wants_obs()) {
    tracer.begin_process("bmac_peer " + deployment.hw.name());
    peer.attach_observability(&registry, &tracer);
  }
  peer.start();
  bmac::ProtocolSender protocol(harness.msp());

  int valid = 0, invalid = 0;
  for (int b = 0; b < options.blocks; ++b) {
    const fabric::Block block = harness.next_block();
    const auto result = sw.validate_and_commit(block, sw_db, sw_ledger);
    valid += static_cast<int>(result.valid_tx_count);
    invalid +=
        static_cast<int>(block.tx_count()) - static_cast<int>(result.valid_tx_count);
    for (const auto& packet : protocol.send(block).packets)
      peer.deliver_packet(packet);
    peer.deliver_block(block);
    sim.run();
  }

  const bool match = sw_ledger.height() == peer.ledger().height() &&
                     fabric::chain_divergence(peer.ledger(), sw_ledger).empty();

  std::printf("%d blocks, %d valid / %d invalid transactions\n",
              options.blocks, valid, invalid);
  std::printf("final commit hash: %s\n",
              hex_encode(crypto::digest_view(sw_ledger.last().commit_hash))
                  .c_str());
  std::printf("hw/sw consistency: %s\n", match ? "PASS" : "FAIL");
  if (harness.durable() != nullptr) {
    harness.durable()->sync();
    const fabric::FileBlockStore& store = harness.durable()->store();
    std::printf("durable ledger: %llu blocks (%llu bytes) at %s, "
                "%llu snapshots (newest at height %llu)\n",
                static_cast<unsigned long long>(store.height()),
                static_cast<unsigned long long>(store.bytes_written()),
                options.ledger_path.c_str(),
                static_cast<unsigned long long>(
                    harness.durable()->snapshots_cut()),
                static_cast<unsigned long long>(
                    harness.durable()->last_snapshot_height()));
  }
  if (options.flags.wants_obs()) {
    peer.publish_metrics();
    sw.publish_metrics(registry, "fabric_sw");
    sw_db.publish_metrics(registry, "fabric_sw_statedb");
    if (harness.durable() != nullptr)
      harness.durable()->publish_metrics(registry, "durable");
    const int rc = obs::write_artifacts(options.flags, registry, tracer,
                                        sim.now());
    if (rc != 0) return rc;
  }
  return match ? 0 : 1;
}

int cmd_protocol(const Options& options, const serve::Scenario& scenario) {
  workload::NetworkOptions net_options =
      scenario.bmac.value_or(workload::Deployment{}).network;
  net_options.block_size = static_cast<std::size_t>(options.block_size);
  workload::FabricNetworkHarness harness(net_options);
  bmac::ProtocolSender sender(harness.msp());
  sender.send(harness.next_block());  // warm the identity cache
  const auto result = sender.send(harness.next_block());
  std::printf("block of %d txs: gossip %zu B, bmac %zu B (%.1fx smaller, "
              "%.1f%% bandwidth saved)\n",
              options.block_size, result.gossip_size, result.bmac_size,
              static_cast<double>(result.gossip_size) / result.bmac_size,
              100.0 * (1.0 - static_cast<double>(result.bmac_size) /
                                 result.gossip_size));
  std::printf("%zu packets; %zu identities removed (%zu bytes)\n",
              result.packets.size(), result.identities_removed,
              result.identity_bytes_removed);
  return 0;
}

int cmd_recover(const Options& options, const serve::Scenario&) {
  if (options.ledger_path.empty()) {
    std::fprintf(stderr, "recover needs --ledger FILE (a block log written "
                         "by `validate --ledger`)\n");
    return 2;
  }
  fabric::DurabilityConfig config;
  config.ledger_path = options.ledger_path;

  fabric::Ledger ledger;
  fabric::StateDb state;
  const fabric::RecoveryResult result =
      fabric::DurableLedger::recover(config, ledger, state);

  std::printf("recovered %llu blocks (%llu replayed from the log%s) "
              "in %.2f ms\n",
              static_cast<unsigned long long>(result.height),
              static_cast<unsigned long long>(result.blocks_replayed),
              result.used_snapshot
                  ? (", snapshot at height " +
                     std::to_string(result.snapshot_height))
                        .c_str()
                  : ", no snapshot",
              result.duration_s * 1e3);
  if (result.torn_bytes > 0)
    std::printf("torn tail: %llu bytes discarded\n",
                static_cast<unsigned long long>(result.torn_bytes));
  std::printf("world state: %zu keys\n", state.size());
  if (result.height > 0)
    std::printf("final commit hash: %s\n",
                hex_encode(crypto::digest_view(ledger.last_commit_hash()))
                    .c_str());
  if (!result.ok)
    std::printf("recovery FAILED: %s\n", result.error.c_str());

  if (options.flags.wants_obs()) {
    obs::Registry registry;
    obs::Tracer tracer;
    fabric::DurableLedger::publish_recovery_metrics(registry, "recover",
                                                    result);
    state.publish_metrics(registry, "recover_statedb");
    const int rc = obs::write_artifacts(options.flags, registry, tracer, 0);
    if (rc != 0) return rc;
  }
  return result.ok ? 0 : 1;
}

int cmd_chaos(const Options& options, const serve::Scenario& scenario) {
  if (!scenario.faults) {
    std::fprintf(stderr,
                 "chaos needs --scenario FILE (see configs/faults_*.json)\n");
    return 2;
  }
  workload::ChaosOptions chaos;
  chaos.scenario = *scenario.faults;
  chaos.blocks = options.blocks;
  if (scenario.bmac) {
    chaos.network = scenario.bmac->network;
    chaos.hw = scenario.bmac->hw;
  }
  chaos.network.block_size = static_cast<std::size_t>(options.block_size);
  chaos.tamper_last_block = options.tamper;

  obs::Registry registry;
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  const bool obs_on = options.flags.wants_obs();
  telemetry.configure(options.flags, scenario.slo);
  if (obs_on) tracer.begin_process("chaos " + scenario.name);
  const workload::ChaosReport report = workload::run_chaos_scenario(
      chaos, obs_on ? &registry : nullptr, obs_on ? &tracer : nullptr,
      &telemetry);

  std::printf("scenario %s, %d blocks of %d txs\n%s",
              scenario.name.c_str(), options.blocks, options.block_size,
              report.to_text().c_str());
  std::printf("equivalence vs fault-free reference: %s\n",
              report.ok() ? "PASS" : "FAIL");
  if (obs_on) {
    const int rc =
        obs::write_artifacts(options.flags, registry, tracer,
                             report.finished_at);
    if (rc != 0) return rc;
    const int telemetry_rc = telemetry.write();
    if (telemetry_rc != 0) return telemetry_rc;
  }
  return report.ok() ? 0 : 1;
}

int cmd_cluster(const Options& options, const serve::Scenario& scenario) {
  cluster::ClusterConfig config =
      scenario.cluster.value_or(cluster::ClusterConfig{});
  config.data_dir = options.data_dir;

  sim::Simulation sim;
  cluster::ClusterDeployment deployment(sim, config);
  const std::string data_note =
      config.data_dir.empty() ? "" : ", data dir " + config.data_dir;
  std::printf("cluster %s: %d orgs x %d peers, %d orderers, block size %zu%s\n",
              scenario.name.empty() ? "cluster" : scenario.name.c_str(),
              config.orgs, config.peers_per_org, config.orderers,
              config.block_size, data_note.c_str());

  const auto target = static_cast<std::uint64_t>(options.blocks);
  const sim::Time deadline = 600 * sim::kSecond;
  bool reached = true;
  if (options.kill_leader && target > 1) {
    reached = deployment.run_until_blocks(target / 2, deadline);
    const int leader = deployment.leader();
    if (leader >= 0) {
      std::printf("killing leader orderer %d at block %llu\n", leader,
                  static_cast<unsigned long long>(deployment.blocks_emitted()));
      deployment.kill_orderer(leader);
    }
  }
  reached = deployment.run_until_blocks(target, deadline) && reached;
  deployment.settle(2 * sim::kSecond);

  const bool converged = deployment.converged();
  std::printf("emitted %llu blocks (reference height %llu); "
              "dupes suppressed %llu, forks %llu\n",
              static_cast<unsigned long long>(deployment.blocks_emitted()),
              static_cast<unsigned long long>(
                  deployment.harness().reference_ledger().height()),
              static_cast<unsigned long long>(
                  deployment.ordering().duplicates_suppressed()),
              static_cast<unsigned long long>(
                  deployment.ordering().forks_detected()));
  for (int peer = 0; peer < deployment.peer_count(); ++peer)
    std::printf("  peer %d (org %d): height %llu%s\n", peer,
                deployment.org_of(peer),
                static_cast<unsigned long long>(deployment.peer_height(peer)),
                deployment.peer_online(peer) ? "" : " [offline]");
  if (deployment.state_transfers() > 0)
    std::printf("state transfers: %llu (%llu bytes, %llu blocks caught up)\n",
                static_cast<unsigned long long>(deployment.state_transfers()),
                static_cast<unsigned long long>(deployment.transfer_bytes()),
                static_cast<unsigned long long>(deployment.catch_up_blocks()));
  std::printf("convergence vs single-peer reference: %s\n",
              converged ? "PASS" : "FAIL");
  if (!converged && !deployment.divergence().empty())
    std::printf("divergence: %s\n", deployment.divergence().c_str());

  if (options.flags.wants_obs()) {
    obs::Registry registry;
    obs::Tracer tracer;
    deployment.publish_metrics(registry, "cluster");
    const int rc =
        obs::write_artifacts(options.flags, registry, tracer, sim.now());
    if (rc != 0) return rc;
  }
  return converged && reached ? 0 : 1;
}

int cmd_serve(const Options& options, const serve::Scenario& scenario) {
  // Without --scenario: the default steady 1000 tps Poisson run.
  serve::ServeOptions serve_options = scenario.serve;
  serve_options.check_equivalence = true;
  if (scenario.faults && scenario.faults->data.any())
    std::fprintf(stderr,
                 "note: the \"faults\" section is not applied by `serve` "
                 "(clean-network harness); use `chaos --scenario`\n");

  obs::Registry registry;
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  const bool obs_on = options.flags.wants_obs();
  telemetry.configure(options.flags, scenario.slo);
  const serve::ServeReport report =
      serve::run_serve(serve_options, obs_on ? &registry : nullptr,
                       obs_on ? &tracer : nullptr, &telemetry);

  std::printf("scenario %s: %s arrivals at %.0f tps for %.0f ms\n%s",
              serve_options.name.c_str(),
              serve_options.traffic.process == serve::ArrivalProcess::kPoisson
                  ? "poisson"
                  : "mmpp",
              serve_options.traffic.rate_tps,
              static_cast<double>(serve_options.duration) / sim::kMillisecond,
              report.to_text().c_str());
  if (obs_on) {
    // The metrics were read when the run stopped, after the drain window;
    // finished_at is the last commit, which can be seconds earlier.
    const int rc = obs::write_artifacts(
        options.flags, registry, tracer,
        serve_options.duration + serve_options.drain_limit);
    if (rc != 0) return rc;
    const int telemetry_rc = telemetry.write();
    if (telemetry_rc != 0) return telemetry_rc;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: bmac_sim <throughput|resources|validate|protocol|"
                 "chaos|serve|cluster|recover> [flags]\n%s",
                 options.usage.c_str());
    return 2;
  }
  const std::string refused = refused_artifacts(options.command, options.flags);
  if (!refused.empty()) {
    std::fprintf(stderr, "%s\n", refused.c_str());
    return 2;
  }
  using Command = int (*)(const Options&, const serve::Scenario&);
  const std::map<std::string, Command> commands = {
      {"throughput", cmd_throughput}, {"resources", cmd_resources},
      {"validate", cmd_validate},     {"protocol", cmd_protocol},
      {"chaos", cmd_chaos},           {"serve", cmd_serve},
      {"cluster", cmd_cluster},       {"recover", cmd_recover}};
  const auto command = commands.find(options.command);
  if (command == commands.end()) {
    std::fprintf(stderr, "unknown command: %s\n", options.command.c_str());
    return 2;
  }
  try {
    const std::optional<serve::Scenario> scenario = load_scenario(options);
    if (!scenario) return 2;
    return command->second(options, *scenario);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
