// Cluster topology + protocol configuration (docs/CLUSTER.md).
//
// One struct drives a whole N-org × M-peer deployment: the Raft ordering
// cluster, the gossip mesh, the per-peer durable ledgers and the catch-up
// protocol. The same knobs are loadable from the composed `--scenario`
// file's "cluster" section (detail::parse_cluster_section), so a cluster
// experiment is one JSON document like every other scenario in the repo.
#pragma once

#include <string>

#include "common/config.hpp"
#include "fabric/raft.hpp"
#include "net/gossip.hpp"

namespace bm::cluster {

struct ClusterConfig {
  std::string name = "cluster";

  // --- topology --------------------------------------------------------------
  int orgs = 2;
  int peers_per_org = 2;
  int orderers = 3;  ///< Raft ordering-cluster size

  // --- workload --------------------------------------------------------------
  std::size_t block_size = 8;  ///< transactions per cut block
  std::uint64_t seed = 7;
  /// Endorsement policy; empty derives "<orgs>-outof-<orgs> orgs".
  std::string policy_text;
  /// Open-loop client cadence: one endorsed envelope per tick.
  sim::Time submit_interval = 2 * sim::kMillisecond;

  // --- protocols -------------------------------------------------------------
  /// Raft ordering cluster; nodes / max_tx_per_block / seed are overwritten
  /// from the topology above at deployment time.
  fabric::RaftOrderingService::Config ordering;
  /// Gossip mesh across all orgs*peers_per_org peers; seed is derived.
  net::GossipNetwork::Config gossip;
  /// Leader-orderer -> org-lead-peer delivery latency.
  sim::Time delivery_delay = 300 * sim::kMicrosecond;

  // --- durability + state transfer -------------------------------------------
  /// Directory for per-peer block logs and snapshots; empty runs every peer
  /// in memory (state transfer then has no source and catch-up falls back
  /// to gossip anti-entropy).
  std::string data_dir;
  /// Per-peer StateDb snapshot cadence in blocks (0 = never).
  std::uint64_t snapshot_interval = 4;
  /// A restarted peer this many blocks (or more) behind fetches a snapshot
  /// from a healthy peer instead of waiting for gossip repair.
  std::uint64_t catch_up_threshold = 4;
  /// State-transfer link model: bytes/8 / (gbps*1e9) + rtt of stall.
  double transfer_gbps = 1.0;
  sim::Time transfer_rtt = 1 * sim::kMillisecond;

  int peer_count() const { return orgs * peers_per_org; }
};

namespace detail {
/// Parse a "cluster" scenario section onto the defaults above. Shares the
/// config facility's diagnostics ("scenario.cluster.orgs: expected an
/// integer in [1, 255]"); errors land in the section's sink for the caller.
ClusterConfig parse_cluster_section(const bm::config::Section& root);
}  // namespace detail

}  // namespace bm::cluster
