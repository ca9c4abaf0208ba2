// The four workloads and the per-layer probes they share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fabric/block.hpp"
#include "fabric/policy.hpp"
#include "harness.hpp"
#include "workload/network_harness.hpp"

namespace perfbench {

/// Set-up repetitions of the workloads that sign and validate a chain.
constexpr int kChainSetupReps = 3;
/// Set-up repetitions of the workloads whose set-up only parses a scenario
/// file: enough that the median of a sub-millisecond set-up is steady.
constexpr int kParseReps = 101;

Result run_commit(const RunConfig& config, SpanLog& spans);
Result run_replay(const RunConfig& config, SpanLog& spans);
Result run_serve(const RunConfig& config, SpanLog& spans);
Result run_failover(const RunConfig& config, SpanLog& spans);

/// A seeded chain, signed and reference-validated by the harness.
struct Chain {
  std::unique_ptr<bm::workload::FabricNetworkHarness> harness;  ///< reference
  std::vector<bm::fabric::Block> blocks;  ///< as ordered
  std::uint64_t txs = 0;
};

/// The set-up of `commit` and `replay`: build the chain kChainSetupReps
/// times (timed into result.setup_s), keep the first, and check that every
/// build reached the same reference tail hash.
Chain build_chain(const bm::workload::NetworkOptions& options, int blocks,
                  Result& result);

/// Every per-layer metric, in output order, with its unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// A workload's own chain, as the probes see it.
struct ProbeInput {
  const bm::fabric::Msp* msp = nullptr;
  const std::map<std::string, bm::fabric::EndorsementPolicy>* policies =
      nullptr;
  const std::vector<bm::fabric::Block>* blocks = nullptr;  ///< from block 0
  bm::workload::NetworkOptions network;  ///< how the chain was generated
};

/// Time each layer's public functions on the workload's own chain and fill
/// the unit-cost and count metrics of `crypto`, `wire`, `workload`,
/// `fabric`, `bmac` and `sim` into result.layers.
void probe_layers(const ProbeInput& input, const RunConfig& config,
                  Result& result);

/// Fill the `cluster.*`, `fabric.raft_*` and `net.*` metrics. The failover
/// workload takes them from its own run; the others run a short cluster
/// with their seed, so every traced run reports every layer.
void probe_cluster(const RunConfig& config, Result& result);

/// The version-stamped writes of a committed block's valid transactions,
/// grouped the way a committing peer hands them to StateDb::commit_batch.
bm::fabric::StateDb::WriteBatch valid_writes(const bm::fabric::Block& block,
                                             const bm::fabric::StateDb& db);

/// Estimated share of `wall_s` spent in ECDSA: counted operations times the
/// unit costs already in result.layers.
double crypto_share(const Result& result, double verifies, double signs,
                    double wall_s);

}  // namespace perfbench
