// bmac_sim: command-line driver for the Blockchain Machine simulator.
//
// Subcommands:
//   throughput [--config FILE] [--blocks N] [--block-size N] [--vcpus N]
//       Run the saturating workload on the configured hardware architecture
//       and print BMac vs software-peer performance.
//   resources [--config FILE]
//       FPGA resource estimate (Table 1 style) for the configured
//       architecture and its compiled policy circuits.
//   validate [--config FILE] [--blocks N] [--block-size N] [--faults]
//            [--ledger FILE] [--snapshot-interval N]
//       Run real endorsed blocks through both validators end to end and
//       report the §4.1 consistency check. --ledger FILE persists the
//       committed chain to an on-disk block log, cutting a StateDb
//       snapshot every --snapshot-interval N blocks (docs/DURABILITY.md).
//   recover --ledger FILE
//       Rebuild ledger + world state from a block log written by a
//       --ledger run (newest intact snapshot + replay, falling back to a
//       full replay) and print the recovered chain position.
//   protocol [--config FILE] [--block-size N]
//       BMac protocol vs Gossip block sizes on real marshaled blocks.
//   chaos --scenario FILE [--blocks N] [--block-size N] [--tamper]
//       Drive the degraded-path stack (GBN + fault injection + software
//       fallback) with a fault schedule and check the committed chain
//       against the fault-free reference (docs/FAULTS.md). --scenario takes
//       a composed scenario file and reads its "faults" (and "slo")
//       sections. (The pre-scenario --faults-config alias was removed; wrap
//       a standalone faults_*.json as {"faults": {...}}.)
//   serve [--scenario FILE]
//       Run the open-loop client-serving front end (traffic -> admission ->
//       endorse -> order -> commit, docs/SERVING.md) and print the SLO
//       report. --scenario takes a composed configs/scenario_*.json file
//       (serve + sessions + durability + slo sections, docs/SERVING.md).
//       Without it, a built-in steady Poisson scenario is used. (The
//       pre-scenario --serve-config alias was removed; wrap a standalone
//       serve_*.json as {"serve": {...}}.)
//   cluster [--scenario FILE] [--blocks N] [--kill-leader] [--data-dir DIR]
//       Run an N-org/M-peer deployment with a Raft ordering cluster,
//       payload gossip and peer state transfer (docs/CLUSTER.md), checking
//       every peer against the single-peer reference commit-hash chain.
//       --scenario reads the "cluster" section of a composed scenario file
//       (configs/scenario_cluster.json); --kill-leader crashes the Raft
//       leader mid-run; --data-dir enables per-peer durable logs +
//       snapshot-based catch-up. Exit code 0 iff the cluster converged.
//
// Observability (throughput and validate): --trace-out FILE writes a Chrome
// trace-event JSON of the whole run (open in Perfetto / chrome://tracing);
// --metrics-out FILE writes a JSON metrics snapshot; --metrics-text FILE
// writes the same snapshot in Prometheus text-exposition format. Outputs
// are deterministic: two identical invocations produce byte-identical
// files. When the first argument is an option, the command defaults to
// `validate`.
//
// Continuous telemetry (chaos and serve, docs/OBSERVABILITY.md):
// --sample-interval MS samples every metric on the simulated clock into
// --timeseries-out / --timeseries-csv; --slo-config FILE evaluates SLO
// burn-rate rules during the run (--slo-out writes the alert log);
// --flight-out FILE arms the per-transaction flight recorder, dumped at the
// first SLO alert / watchdog fire / fallback activation.
//
// Without --config, a built-in two-org smallbank deployment is used.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "bmac/config.hpp"
#include "bmac/peer.hpp"
#include "bmac/resource_model.hpp"
#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/hex.hpp"
#include "common/log.hpp"
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

constexpr const char* kDefaultConfig = R"yaml(
network:
  orgs: [Org1, Org2]
chaincodes:
  - name: smallbank
    policy: "2-outof-2 orgs"
hardware:
  tx_validators: 8
  engines_per_vscc: 2
  max_block_txs: 256
  db_capacity: 8192
)yaml";

struct Options {
  std::string command;
  std::string config_path;
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

bool parse_args(int argc, char** argv, Options& options) {
  cli::ArgParser parser;
  parser.add_string("--config", &options.config_path, "deployment YAML");
  parser.add_int("--blocks", &options.blocks, "blocks to run");
  parser.add_int("--block-size", &options.block_size, "transactions per block");
  parser.add_int("--vcpus", &options.vcpus, "software peer vCPUs");
  bool faults_flag = false, tamper_flag = false;
  parser.add_flag("--faults", &faults_flag, "inject invalid transactions");
  parser.add_flag("--tamper", &tamper_flag, "corrupt the last block's signature");
  parser.add_string("--scenario", &options.scenario_path,
                    "composed scenario JSON (configs/scenario_*.json)");
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

bmac::BmacConfig load_config(const Options& options) {
  if (!options.config_path.empty())
    return bmac::load_config_file(options.config_path);
  auto parsed = bmac::parse_config(kDefaultConfig);
  return std::get<bmac::BmacConfig>(parsed);
}

int cmd_throughput(const Options& options) {
  const auto config = load_config(options);
  const auto& [chaincode, policy_text] = *config.chaincode_policies.begin();

  workload::SyntheticSpec spec;
  spec.blocks = options.blocks;
  spec.block_size = options.block_size;
  spec.chaincode = chaincode;
  spec.policy_text = policy_text;
  spec.org_count = static_cast<int>(config.orgs.size());
  {
    // Attach one endorsement per policy principal, like the paper's clients.
    const auto policy =
        fabric::parse_policy_or_throw(policy_text, config.orgs);
    spec.ends_attached = static_cast<int>(policy.principals().size());
  }
  spec.hw = config.hw;

  obs::Registry registry;
  obs::Tracer tracer;
  if (options.flags.wants_obs()) {
    tracer.begin_process("bmac " + config.hw.name());
    spec.registry = &registry;
    spec.tracer = &tracer;
  }
  const auto hw = workload::run_hw_workload(spec);
  const auto sw = workload::run_sw_model(spec, options.vcpus);
  std::printf("chaincode '%s', policy \"%s\", block size %d, %d blocks\n",
              chaincode.c_str(), policy_text.c_str(), options.block_size,
              options.blocks);
  std::printf("BMac peer (%s):   %9.0f tps | block latency %6.2f ms | tx "
              "latency %4.0f us\n",
              config.hw.name().c_str(), hw.tps, hw.block_latency_ms,
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

int cmd_resources(const Options& options) {
  const auto config = load_config(options);
  fabric::Msp msp;
  config.populate_msp(msp);
  const auto circuits = bmac::compile_policies(config.parse_policies(), msp);

  const bmac::ResourceModel model;
  const auto usage = model.estimate(config.hw, circuits);
  std::printf("architecture %s on Alveo U250:\n", config.hw.name().c_str());
  std::printf("  LUT  %6.1f%%   FF  %6.1f%%   BRAM %6.1f%%   URAM %6.1f%%\n",
              usage.lut_pct(), usage.ff_pct(), usage.bram_pct(),
              usage.uram_pct());
  std::printf("module breakdown:\n");
  for (const auto& module : model.breakdown(config.hw, circuits))
    std::printf("  %-66s LUT %8llu  FF %8llu\n", module.name.c_str(),
                static_cast<unsigned long long>(module.lut),
                static_cast<unsigned long long>(module.ff));
  return 0;
}

int cmd_validate(const Options& options) {
  const auto config = load_config(options);
  workload::NetworkOptions net_options;
  net_options.orgs = static_cast<int>(config.orgs.size());
  net_options.policy_text = config.chaincode_policies.begin()->second;
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
  bmac::BmacPeer peer(sim, harness.msp(), config.hw, harness.policies());
  obs::Registry registry;
  obs::Tracer tracer;
  if (options.flags.wants_obs()) {
    sim::attach_log_clock(sim);
    tracer.begin_process("bmac_peer " + config.hw.name());
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
    sim::detach_log_clock();
    const int rc = obs::write_artifacts(options.flags, registry, tracer,
                                        sim.now());
    if (rc != 0) return rc;
  }
  return match ? 0 : 1;
}

int cmd_protocol(const Options& options) {
  const auto config = load_config(options);
  workload::NetworkOptions net_options;
  net_options.orgs = static_cast<int>(config.orgs.size());
  net_options.policy_text = config.chaincode_policies.begin()->second;
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

int cmd_recover(const Options& options) {
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

int cmd_chaos(const Options& options) {
  net::FaultScenario fault_scenario;
  std::optional<obs::SloConfig> inline_slo;
  if (!options.scenario_path.empty()) {
    std::string error;
    const auto loaded = serve::load_scenario(options.scenario_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   options.scenario_path.c_str(), error.c_str());
      return 2;
    }
    if (!loaded->faults) {
      std::fprintf(stderr, "%s: chaos needs a \"faults\" section\n",
                   options.scenario_path.c_str());
      return 2;
    }
    fault_scenario = *loaded->faults;
    if (fault_scenario.name.empty()) fault_scenario.name = loaded->name;
    inline_slo = loaded->slo;
  } else {
    std::fprintf(stderr,
                 "chaos needs --scenario FILE (see configs/scenario_*.json)\n");
    return 2;
  }

  workload::ChaosOptions chaos;
  chaos.scenario = fault_scenario;
  chaos.blocks = options.blocks;
  chaos.network.block_size = static_cast<std::size_t>(options.block_size);
  chaos.tamper_last_block = options.tamper;
  if (!options.config_path.empty()) chaos.hw = load_config(options).hw;

  obs::Registry registry;
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  const bool obs_on = options.flags.wants_obs();
  std::string telemetry_error;
  if (!telemetry.configure(options.flags, &telemetry_error)) {
    std::fprintf(stderr, "%s\n", telemetry_error.c_str());
    return 2;
  }
  if (inline_slo) telemetry.set_slo_config(std::move(inline_slo));
  if (obs_on) tracer.begin_process("chaos " + fault_scenario.name);
  const workload::ChaosReport report = workload::run_chaos_scenario(
      chaos, obs_on ? &registry : nullptr, obs_on ? &tracer : nullptr,
      &telemetry);

  std::printf("scenario %s, %d blocks of %d txs\n%s",
              fault_scenario.name.c_str(), options.blocks, options.block_size,
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

int cmd_cluster(const Options& options) {
  cluster::ClusterConfig config;
  if (!options.scenario_path.empty()) {
    std::string error;
    const auto loaded = serve::load_scenario(options.scenario_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   options.scenario_path.c_str(), error.c_str());
      return 2;
    }
    if (!loaded->cluster) {
      std::fprintf(stderr, "%s: cluster needs a \"cluster\" section\n",
                   options.scenario_path.c_str());
      return 2;
    }
    config = *loaded->cluster;
  }
  if (!options.data_dir.empty()) config.data_dir = options.data_dir;

  sim::Simulation sim;
  cluster::ClusterDeployment deployment(sim, config);
  const std::string data_note =
      config.data_dir.empty() ? "" : ", data dir " + config.data_dir;
  std::printf("cluster %s: %d orgs x %d peers, %d orderers, block size %zu%s\n",
              config.name.c_str(), config.orgs, config.peers_per_org,
              config.orderers, config.block_size, data_note.c_str());

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

}  // namespace

int cmd_serve(const Options& options) {
  serve::ServeOptions serve_options;  // defaults: steady 1000 tps Poisson
  std::optional<obs::SloConfig> inline_slo;
  if (!options.scenario_path.empty()) {
    std::string error;
    const auto loaded = serve::load_scenario(options.scenario_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   options.scenario_path.c_str(), error.c_str());
      return 2;
    }
    serve_options = loaded->serve;
    inline_slo = loaded->slo;
    if (loaded->faults && loaded->faults->data.any())
      std::fprintf(stderr,
                   "note: the \"faults\" section is not applied by `serve` "
                   "(clean-network harness); use `chaos --scenario`\n");
  }

  obs::Registry registry;
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  const bool obs_on = options.flags.wants_obs();
  std::string telemetry_error;
  if (!telemetry.configure(options.flags, &telemetry_error)) {
    std::fprintf(stderr, "%s\n", telemetry_error.c_str());
    return 2;
  }
  if (inline_slo) telemetry.set_slo_config(std::move(inline_slo));
  const serve::ServeReport report =
      serve::run_serve(serve_options, obs_on ? &registry : nullptr,
                       obs_on ? &tracer : nullptr, &telemetry);

  std::printf("scenario %s: %s arrivals at %.0f tps for %.0f ms\n%s",
              serve_options.name.c_str(),
              serve_options.traffic.process == serve::ArrivalProcess::kPoisson
                  ? "poisson"
                  : serve_options.traffic.process ==
                            serve::ArrivalProcess::kMmpp
                        ? "mmpp"
                        : "diurnal",
              serve_options.traffic.rate_tps,
              static_cast<double>(serve_options.duration) / sim::kMillisecond,
              report.to_text().c_str());
  if (obs_on) {
    const int rc = obs::write_artifacts(options.flags, registry, tracer,
                                        report.finished_at);
    if (rc != 0) return rc;
    const int telemetry_rc = telemetry.write();
    if (telemetry_rc != 0) return telemetry_rc;
  }
  return report.ok() ? 0 : 1;
}

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: bmac_sim <throughput|resources|validate|protocol|"
                 "chaos|serve|cluster|recover> [flags]\n%s",
                 options.usage.c_str());
    return 2;
  }
  try {
    if (options.command == "throughput") return cmd_throughput(options);
    if (options.command == "resources") return cmd_resources(options);
    if (options.command == "validate") return cmd_validate(options);
    if (options.command == "protocol") return cmd_protocol(options);
    if (options.command == "chaos") return cmd_chaos(options);
    if (options.command == "serve") return cmd_serve(options);
    if (options.command == "cluster") return cmd_cluster(options);
    if (options.command == "recover") return cmd_recover(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", options.command.c_str());
  return 2;
}
