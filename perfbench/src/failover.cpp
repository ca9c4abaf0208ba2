// Workload `failover`: Raft ordering, gossip, state transfer and multi-peer
// validation in one ClusterDeployment.
//
// Set-up parses scenarios/scenario_cluster.json (a copy of the repository's
// configs/scenario_cluster.json with the run's seed): 2 orgs x 2 peers, 3
// Raft orderers, 8-tx blocks, 5% gossip loss, 1 Gbps links, 1 ms transfer
// RTT.
//
// One timed rep drives a fresh deployment block by block to 30 blocks. The
// Raft leader is killed after a third of them; after two thirds the last
// peer crashes, losing its disk; at the end it restarts from its temp data
// dir and catches up by snapshot state transfer. The cluster must converge
// on the reference chain with zero forks. The harness's client signing and
// reference commit run inside the deployment, so they are part of the
// timing.
#include <algorithm>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "serve/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bm;

constexpr sim::Time kDeadline = 600 * sim::kSecond;
constexpr sim::Time kSettle = sim::kSecond;

struct ClusterRun {
  double seconds = 0;  ///< scaled seconds of the timed steps
  double sim_s = 0;
  std::uint64_t txs = 0;
  Samples block_ms;  ///< wall ms per emitted block outside failure windows
  double election_ms = 0;
  double catch_up_ms = 0;
  std::uint64_t emitted = 0;
  std::uint64_t reference_height = 0;
  std::uint64_t validations = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t gossip_messages = 0;
  std::uint64_t events = 0;
  std::string pins;
  std::vector<fabric::Block> blocks;  ///< the reference chain, as ordered
};

cluster::ClusterConfig load_cluster(const RunConfig& config) {
  std::string error;
  auto scenario = serve::parse_scenario(
      scenario_text(config, "scenario_cluster.json"), &error);
  if (!scenario || !scenario->cluster)
    throw std::runtime_error("scenario_cluster.json: " + error);
  return *scenario->cluster;
}

/// The network options ClusterDeployment derives for its own harness, so
/// a harness built from them has the deployment's identities.
workload::NetworkOptions network_of(const cluster::ClusterConfig& config) {
  workload::NetworkOptions options;
  options.orgs = config.orgs;
  options.block_size = config.block_size;
  options.seed = config.seed;
  options.policy_text = std::to_string(config.orgs) + "-outof-" +
                        std::to_string(config.orgs) + " orgs";
  return options;
}

ClusterRun run_cluster(cluster::ClusterConfig config, std::uint64_t target,
                       const fs::path& data_dir, SpanLog& spans,
                       Result& result) {
  ClusterRun run;
  config.data_dir = data_dir.string();
  sim::Simulation sim;
  cluster::ClusterDeployment deployment(sim, config);
  const std::uint64_t kill_after = target / 3, crash_after = 2 * target / 3;
  const int crashed = deployment.peer_count() - 1;
  int killed = -1;
  bool reached = true;

  for (std::uint64_t k = 1; k <= target; ++k) {
    const bool election = k == kill_after + 1;
    if (election) {
      killed = deployment.leader();
      if (killed >= 0) deployment.kill_orderer(killed);
    }
    if (k == crash_after + 1) deployment.crash_peer(crashed);
    const auto span = spans.span(election ? "cluster.election" : "cluster.block",
                                 static_cast<std::int64_t>(k));
    ScaledTimer timer;
    reached = deployment.run_until_blocks(k, kDeadline) && reached;
    const double seconds = timer.stop();
    run.seconds += seconds;
    const double ms = seconds * 1e3;
    if (election) run.election_ms = ms;
    else if (k > 1) run.block_ms.add(ms);  // block 1 waits on the first election
  }
  {
    const auto span = spans.span("cluster.catch_up");
    ScaledTimer timer;
    deployment.restart_peer(crashed);
    deployment.settle(kSettle);
    const double seconds = timer.stop();
    run.seconds += seconds;
    run.catch_up_ms = seconds * 1e3;
  }
  run.sim_s = static_cast<double>(sim.now()) / sim::kSecond;

  // Oracle.
  const fabric::Ledger& reference = deployment.harness().reference_ledger();
  result.check(reached && killed >= 0, "cluster missed its block target");
  result.check(deployment.ordering().forks_detected() == 0,
               "ordering forked");
  result.check(deployment.state_transfers() == 1 &&
                   deployment.last_transfer().ok,
               "restarted peer was not caught up by one state transfer: " +
                   deployment.last_transfer().error);
  result.check(deployment.peer_height(crashed) == reference.height(),
               "restarted peer did not reach the tip");
  result.check(deployment.converged(),
               "cluster did not converge: " + deployment.divergence());

  const std::vector<sim::Time>& times = deployment.emission_times();
  sim::Time stall = 0;
  for (std::size_t i = 1; i < times.size(); ++i)
    stall = std::max(stall, times[i] - times[i - 1]);
  run.pins = "killed " + std::to_string(killed) + " stall_ns " +
             std::to_string(stall) + " tail " +
             hex(reference.last_commit_hash()) + " transfer_bytes " +
             std::to_string(deployment.transfer_bytes()) + "\nemissions";
  for (const sim::Time t : times) {
    run.pins += ' ';
    run.pins += std::to_string(t);
  }
  run.pins += "\n";

  for (std::uint64_t n = 0; n < reference.height(); ++n) {
    run.txs += reference.at(n).block.tx_count();
    // Back to the as-ordered form: every flag "not validated".
    run.blocks.push_back(reference.at(n).block);
    std::fill(run.blocks.back().metadata.tx_flags.begin(),
              run.blocks.back().metadata.tx_flags.end(),
              static_cast<std::uint8_t>(fabric::TxValidationCode::kNotValidated));
  }
  run.emitted = deployment.blocks_emitted();
  run.reference_height = reference.height();
  run.validations = deployment.blocks_validated();
  run.transfer_bytes = deployment.transfer_bytes();
  run.duplicates = deployment.ordering().duplicates_suppressed();
  run.gossip_messages = deployment.gossip().messages_sent();
  run.events = sim.events_executed();
  return run;
}

/// The cluster layer's metrics from the failover reps (pooled).
void cluster_layers(const std::vector<ClusterRun>& runs,
                    const cluster::ClusterConfig& config, Result& result) {
  Samples steady, election, catch_up, share;
  for (const ClusterRun& run : runs) {
    steady.add(run.block_ms.median());
    election.add(run.election_ms);
    catch_up.add(run.catch_up_ms);
    // Counted ECDSA: every peer validation and the reference commit verify
    // each block; each tx carries one client and one per-org signature and
    // each emitted block one orderer signature.
    const double verifies =
        static_cast<double>(run.validations + run.reference_height) *
        static_cast<double>(run.txs) /
        static_cast<double>(run.reference_height) *
        result.layers.at("crypto.verifies_per_tx");
    const double signs = static_cast<double>(run.txs) * (1 + config.orgs) +
                         static_cast<double>(run.emitted);
    share.add(crypto_share(result, verifies, signs, run.seconds));
  }
  const ClusterRun& last = runs.back();
  const auto per_block = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(last.emitted);
  };
  result.layers["cluster.steady_ms_per_block"] = steady.median();
  result.layers["cluster.election_ms"] = election.median();
  result.layers["cluster.catch_up_ms"] = catch_up.median();
  result.layers["cluster.transfer_bytes"] =
      static_cast<double>(last.transfer_bytes);
  result.layers["cluster.validations_per_block"] = per_block(last.validations);
  result.layers["cluster.crypto_share"] = share.median();
  result.layers["fabric.raft_duplicates_per_block"] = per_block(last.duplicates);
  result.layers["net.gossip_msgs_per_block"] = per_block(last.gossip_messages);
}

/// Blocks per cluster run: the benchmark's, and the smoke test's and the
/// other workloads' short cluster probe.
constexpr std::uint64_t kRunBlocks = 30;
constexpr std::uint64_t kShortRunBlocks = 12;

}  // namespace

Result run_failover(const RunConfig& config, SpanLog& spans) {
  Result result;
  cluster::ClusterConfig cluster_config;
  timed_setup(
      result, kParseReps, [&] { return load_cluster(config); },
      [&](cluster::ClusterConfig parsed, int rep) {
        if (rep == 0) cluster_config = std::move(parsed);
      });

  std::vector<ClusterRun> runs;
  Samples sim_speed, tps;
  const double overhead = run_reps(config, spans, 1, [&](int rep) {
    const TempDir dir(config.out_dir / "tmp");
    ClusterRun run = run_cluster(
        cluster_config,
        config.scale == Scale::kSmoke ? kShortRunBlocks : kRunBlocks,
        dir.path(), spans, result);
    result.check(runs.empty() || run.pins == runs.front().pins,
                 "rep " + std::to_string(rep) + " differs from rep 0");
    sim_speed.add(run.sim_s / run.seconds);
    tps.add(static_cast<double>(run.txs) / run.seconds);
    const double seconds = run.seconds;
    if (!runs.empty()) run.blocks.clear();  // the probes need one chain
    runs.push_back(std::move(run));
    return seconds;
  });

  result.tx_per_s = tps.median();
  result.figure("failover_sim_speed", sim_speed.median(), "s/s",
                "simulated s per wall s, median of " +
                    std::to_string(sim_speed.size()) + " cluster runs of " +
                    std::to_string(runs.front().reference_height) + " blocks");
  result.pins = runs.front().pins;

  if (config.trace) {
    result.layers["obs.trace_overhead_share"] = overhead;
    const workload::NetworkOptions network = network_of(cluster_config);
    const workload::FabricNetworkHarness identities(network);
    probe_layers({&identities.msp(), &identities.policies(),
                  &runs.front().blocks, network},
                 config, result);
    cluster_layers(runs, cluster_config, result);
    // The cluster's own simulation, not the BMac probe's.
    const ClusterRun& last = runs.back();
    result.layers["sim.events_per_tx"] =
        static_cast<double>(last.events) / static_cast<double>(last.txs);
    result.layers["sim.events_per_s"] =
        static_cast<double>(last.events) / last.seconds;
  }
  return result;
}

void probe_cluster(const RunConfig& config, Result& result) {
  const cluster::ClusterConfig cluster_config = load_cluster(config);
  const TempDir dir(config.out_dir / "tmp");
  SpanLog quiet;
  std::vector<ClusterRun> runs;
  runs.push_back(run_cluster(cluster_config, kShortRunBlocks, dir.path(),
                             quiet, result));
  cluster_layers(runs, cluster_config, result);
}

}  // namespace perfbench
