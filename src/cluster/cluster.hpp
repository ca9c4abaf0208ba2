// ClusterDeployment: an N-org × M-peer Fabric network on the shared DES.
//
// The paper's experiments run one peer against one orderer; this subsystem
// scales the same building blocks out to a cluster (docs/CLUSTER.md):
//
//   clients -> Raft ordering cluster (K nodes, fabric/raft.hpp)
//           -> leader emits each cut block once (canonical chain)
//           -> gossip mesh (net/gossip.hpp) carries the marshaled bytes
//           -> every peer validates + commits through its own
//              SoftwareValidator / StateDb / Ledger (+ DurableLedger)
//
// The equivalence oracle is the §4.1 divergence check at cluster scale: a
// FabricNetworkHarness runs the single-peer reference pipeline over the
// exact emitted block stream, and every peer must reproduce its commit-hash
// chain byte for byte — across gossip loss, leader re-elections and peers
// restarted far behind, which catch up by recovering from a healthy
// neighbour's snapshot and block log (fabric::DurableLedger::recover).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "fabric/durability.hpp"
#include "workload/network_harness.hpp"

namespace bm::cluster {

class ClusterDeployment {
 public:
  ClusterDeployment(sim::Simulation& sim, ClusterConfig config);
  ~ClusterDeployment();

  /// Arm the ordering cluster's election timers and the gossip anti-entropy
  /// schedule. Call once before driving the simulation.
  void start();

  /// Drive an open-loop client (one endorsed envelope per submit_interval,
  /// retrying while the ordering cluster has no leader) until `target`
  /// blocks have been emitted or the simulated deadline passes. Returns
  /// true when the target was reached. Callable repeatedly.
  bool run_until_blocks(std::uint64_t target, sim::Time deadline);

  /// Let in-flight gossip, validation and catch-up settle with no new load.
  void settle(sim::Time duration);

  // --- fault controls --------------------------------------------------------

  int leader() const { return ordering_->leader(); }
  void kill_orderer(int id) { ordering_->stop_node(id); }
  void restart_orderer(int id) { ordering_->restart_node(id); }

  /// Crash a peer cold: it drops offline, loses its world state, ledger and
  /// local disk (log + snapshots). Restart decides how it comes back.
  void crash_peer(int peer);

  /// Bring a crashed peer back online. When it is `catch_up_threshold` or
  /// more blocks behind the reference tip and an online durable peer
  /// exists, it state-transfers — DurableLedger::recover over that donor's
  /// snapshot and log — and only then resumes gossip delivery; otherwise
  /// gossip anti-entropy repairs it block by block. A restarted peer runs
  /// without its own durable log (its disk is gone; re-provisioning is an
  /// operator action, docs/CLUSTER.md), so it cannot donate.
  void restart_peer(int peer);

  // --- equivalence oracle ----------------------------------------------------

  /// True iff every online peer stands at the reference tip with a
  /// byte-identical commit-hash chain and no peer ever diverged.
  bool converged() const;
  /// First divergence observed ("" when none): peer, block, hashes.
  const std::string& divergence() const { return divergence_; }

  // --- introspection ---------------------------------------------------------

  const ClusterConfig& config() const { return config_; }
  workload::FabricNetworkHarness& harness() { return *harness_; }
  fabric::RaftOrderingService& ordering() { return *ordering_; }
  net::GossipNetwork& gossip() { return *gossip_; }

  int peer_count() const { return config_.peer_count(); }
  int org_of(int peer) const { return peer / config_.peers_per_org + 1; }
  bool peer_online(int peer) const;
  std::uint64_t peer_height(int peer) const;
  const fabric::Ledger& peer_ledger(int peer) const;

  std::uint64_t blocks_emitted() const { return ordering_->blocks_emitted(); }
  /// Simulated emission instant of every block, in order — the failover
  /// bench derives the ordering-stall time from the gaps.
  const std::vector<sim::Time>& emission_times() const {
    return emission_times_;
  }
  std::uint64_t blocks_validated() const { return blocks_validated_; }
  std::uint64_t state_transfers() const { return state_transfers_; }
  std::uint64_t transfer_bytes() const { return transfer_bytes_; }
  /// Blocks a restarted peer recovered via snapshot + log-tail replay
  /// (i.e. without waiting on gossip).
  std::uint64_t catch_up_blocks() const { return catch_up_blocks_; }
  const fabric::RecoveryResult& last_transfer() const { return last_transfer_; }

  /// Cluster counters/gauges under "<prefix>_..." (snapshot-style).
  void publish_metrics(obs::Registry& registry,
                       const std::string& prefix) const;

 private:
  struct Peer {
    Peer(int peer_id, const fabric::Msp& msp,
         const std::map<std::string, fabric::EndorsementPolicy>& policies)
        : id(peer_id), validator(msp, policies) {}

    int id;
    bool online = true;
    fabric::StateDb db;
    fabric::Ledger ledger;
    /// Holds no chain state: a crash wipes db and ledger, not this.
    fabric::SoftwareValidator validator;
    std::unique_ptr<fabric::DurableLedger> durable;  ///< null without data_dir
    /// Delivered-but-not-yet-applied payloads (out-of-order gossip arrivals
    /// and blocks held back while a state transfer is in flight).
    std::map<std::uint64_t, Bytes> pending;
    /// Gossip deliveries apply only once sim time passes this (state
    /// transfer link occupancy).
    sim::Time apply_after = 0;
  };

  void on_block_emitted(fabric::Block block);
  void on_payload(int peer, std::uint64_t block_num, const Bytes& payload);
  void drain(Peer& peer);
  void submit_one();
  /// Transfer donor: the online durable peer at the highest chain height,
  /// lowest id first (nullptr when none qualifies).
  Peer* pick_source(int exclude);

  sim::Simulation& sim_;
  ClusterConfig config_;
  std::unique_ptr<workload::FabricNetworkHarness> harness_;
  std::unique_ptr<fabric::RaftOrderingService> ordering_;
  std::unique_ptr<net::GossipNetwork> gossip_;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< StateDb pins the address

  std::vector<sim::Time> emission_times_;
  std::string divergence_;
  std::uint64_t blocks_validated_ = 0;
  std::uint64_t state_transfers_ = 0;
  std::uint64_t transfer_bytes_ = 0;
  std::uint64_t catch_up_blocks_ = 0;
  fabric::RecoveryResult last_transfer_;
  bool started_ = false;
};

}  // namespace bm::cluster
