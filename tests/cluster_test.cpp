// Cluster convergence oracle (ISSUE 10 acceptance): an N-org × M-peer
// deployment with a Raft-ordered block stream and payload gossip must leave
// every peer with a commit-hash chain byte-identical to the single-peer
// reference pipeline — across gossip loss, a forced leader re-election
// mid-stream, and a peer restarted far behind, which recovers from a
// healthy neighbour's snapshot and block log.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "cluster/cluster.hpp"

namespace bm::cluster {
namespace {

std::string temp_dir(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
  return path.string();
}

ClusterConfig small_config() {
  ClusterConfig config;
  config.orgs = 2;
  config.peers_per_org = 2;
  config.orderers = 3;
  config.block_size = 4;
  config.seed = 7;
  config.submit_interval = 2 * sim::kMillisecond;
  return config;
}

/// Snapshot files in a deployment's data dir, every peer's.
std::vector<std::filesystem::path> snapshot_files(const std::string& data_dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".log.snap.") != std::string::npos)
      files.push_back(entry.path());
  }
  return files;
}

/// What a catch-up from `peer`'s files reads: its newest snapshot file plus
/// the log records past that snapshot's height.
std::uint64_t snapshot_plus_log_tail(const std::string& data_dir, int peer) {
  fabric::DurabilityConfig durability;
  durability.ledger_path = data_dir + "/peer" + std::to_string(peer) + ".log";
  const std::string prefix =
      std::filesystem::path(durability.ledger_path).filename().string() +
      ".snap.";
  std::uint64_t newest = 0;
  for (const auto& file : snapshot_files(data_dir)) {
    const std::string name = file.filename().string();
    if (name.rfind(prefix, 0) == 0)
      newest = std::max<std::uint64_t>(newest,
                                       std::stoull(name.substr(prefix.size())));
  }
  const std::vector<std::uint64_t> offsets =
      fabric::FileBlockStore::recover(durability.ledger_path).record_offsets;
  return std::filesystem::file_size(
             fabric::DurableLedger::snapshot_path(durability, newest)) +
         offsets.back() - offsets.at(newest);
}

/// The byte-level oracle behind ClusterDeployment::converged(): compare the
/// full held chain of every online peer against the reference ledger.
void expect_chains_byte_identical(ClusterDeployment& cluster) {
  const fabric::Ledger& reference = cluster.harness().reference_ledger();
  for (int peer = 0; peer < cluster.peer_count(); ++peer) {
    if (!cluster.peer_online(peer)) continue;
    const fabric::Ledger& ledger = cluster.peer_ledger(peer);
    ASSERT_EQ(ledger.height(), reference.height()) << "peer " << peer;
    EXPECT_EQ(ledger.last_commit_hash(), reference.last_commit_hash())
        << "peer " << peer;
    for (std::uint64_t n = ledger.base_height(); n < ledger.height(); ++n) {
      const fabric::CommittedBlock& mine = ledger.at(n);
      const fabric::CommittedBlock& ref = reference.at(n);
      ASSERT_EQ(mine.commit_hash, ref.commit_hash)
          << "peer " << peer << " block " << n;
      EXPECT_TRUE(equal(mine.block.marshal(), ref.block.marshal()))
          << "peer " << peer << " block " << n;
    }
  }
}

TEST(Cluster, AllPeersConvergeLossless) {
  sim::Simulation sim;
  ClusterDeployment cluster(sim, small_config());
  ASSERT_TRUE(cluster.run_until_blocks(8, 120 * sim::kSecond));
  cluster.settle(2 * sim::kSecond);

  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  EXPECT_EQ(cluster.blocks_emitted(), 8u);
  EXPECT_EQ(cluster.ordering().forks_detected(), 0u);
  for (int peer = 0; peer < cluster.peer_count(); ++peer)
    EXPECT_EQ(cluster.peer_height(peer), 8u) << "peer " << peer;
  expect_chains_byte_identical(cluster);
  // Every peer validated every block itself — 4 peers × 8 blocks.
  EXPECT_EQ(cluster.blocks_validated(), 32u);
}

TEST(Cluster, ConvergesUnderGossipLoss) {
  ClusterConfig config = small_config();
  config.seed = 13;
  config.gossip.faults = net::FaultConfig::uniform_loss(0.15, /*seed=*/99);
  sim::Simulation sim;
  ClusterDeployment cluster(sim, config);
  ASSERT_TRUE(cluster.run_until_blocks(10, 120 * sim::kSecond));
  cluster.settle(5 * sim::kSecond);  // anti-entropy closes the gaps

  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  expect_chains_byte_identical(cluster);
}

TEST(Cluster, LeaderReElectionNeverForksOrSkips) {
  ClusterConfig config = small_config();
  config.seed = 19;
  sim::Simulation sim;
  ClusterDeployment cluster(sim, config);
  ASSERT_TRUE(cluster.run_until_blocks(5, 120 * sim::kSecond));

  const int old_leader = cluster.leader();
  ASSERT_GE(old_leader, 0);
  cluster.kill_orderer(old_leader);
  ASSERT_TRUE(cluster.run_until_blocks(12, 600 * sim::kSecond));
  cluster.settle(2 * sim::kSecond);
  EXPECT_NE(cluster.leader(), old_leader);

  // The block stream neither forked nor skipped a number across the
  // re-election: 12 contiguous blocks, one canonical byte version each.
  EXPECT_EQ(cluster.blocks_emitted(), 12u);
  EXPECT_EQ(cluster.ordering().forks_detected(), 0u);
  EXPECT_EQ(cluster.harness().reference_ledger().height(), 12u);
  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  expect_chains_byte_identical(cluster);
}

TEST(Cluster, RestartedPeerStateTransfersFromHealthyNeighbour) {
  ClusterConfig config = small_config();
  config.seed = 23;
  config.data_dir = temp_dir("bm_cluster_test_transfer");
  // Snapshots at 5 and 10 leave the donor's last two blocks in the log only.
  config.snapshot_interval = 5;
  config.catch_up_threshold = 4;
  sim::Simulation sim;
  ClusterDeployment cluster(sim, config);
  ASSERT_TRUE(cluster.run_until_blocks(4, 120 * sim::kSecond));
  cluster.settle(sim::kSecond);

  cluster.crash_peer(3);
  ASSERT_TRUE(cluster.run_until_blocks(12, 600 * sim::kSecond));
  EXPECT_FALSE(cluster.peer_online(3));
  EXPECT_EQ(cluster.peer_height(3), 0u);  // cold crash lost everything

  // The donor is the lowest-id durable peer at the tip: peer 0.
  ASSERT_EQ(cluster.peer_height(0), 12u);
  const std::uint64_t donor_bytes =
      snapshot_plus_log_tail(config.data_dir, 0);
  cluster.restart_peer(3);
  cluster.settle(5 * sim::kSecond);

  // It was >= catch_up_threshold behind, so it recovered via snapshot +
  // log-tail replay off a healthy durable neighbour, not block-by-block.
  EXPECT_EQ(cluster.state_transfers(), 1u);
  EXPECT_TRUE(cluster.last_transfer().ok) << cluster.last_transfer().error;
  EXPECT_EQ(cluster.last_transfer().snapshot_height, 10u);
  EXPECT_EQ(cluster.last_transfer().blocks_replayed, 2u);
  EXPECT_EQ(cluster.catch_up_blocks(), 12u);
  EXPECT_EQ(cluster.transfer_bytes(), donor_bytes);
  EXPECT_EQ(cluster.peer_height(3), 12u);

  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  expect_chains_byte_identical(cluster);
  std::filesystem::remove_all(config.data_dir);
}

TEST(Cluster, DonorWithoutSnapshotCutsOneForTheTransfer) {
  // With snapshot_interval 0 no peer ever cuts a snapshot on schedule: the
  // donor cuts one at its tip when the lagging peer restarts, and the
  // transfer ships exactly that file.
  ClusterConfig config = small_config();
  config.seed = 23;
  config.data_dir = temp_dir("bm_cluster_test_cut");
  config.snapshot_interval = 0;
  config.catch_up_threshold = 4;
  sim::Simulation sim;
  ClusterDeployment cluster(sim, config);
  ASSERT_TRUE(cluster.run_until_blocks(4, 120 * sim::kSecond));
  cluster.settle(sim::kSecond);
  cluster.crash_peer(3);
  ASSERT_TRUE(cluster.run_until_blocks(12, 600 * sim::kSecond));
  EXPECT_TRUE(snapshot_files(config.data_dir).empty());

  cluster.restart_peer(3);
  cluster.settle(5 * sim::kSecond);

  EXPECT_EQ(cluster.state_transfers(), 1u);
  EXPECT_TRUE(cluster.last_transfer().ok) << cluster.last_transfer().error;
  EXPECT_TRUE(cluster.last_transfer().used_snapshot);
  EXPECT_EQ(cluster.last_transfer().blocks_replayed, 0u);
  const auto snapshots = snapshot_files(config.data_dir);
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(cluster.transfer_bytes(),
            std::filesystem::file_size(snapshots.front()));
  EXPECT_EQ(cluster.peer_height(3), 12u);
  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  expect_chains_byte_identical(cluster);
  std::filesystem::remove_all(config.data_dir);
}

TEST(Cluster, FullDrillGossipLossLeaderKillAndPeerRestart) {
  // The acceptance drill, all at once: 2×2 peers with gossip loss, a forced
  // leader re-election mid-run, and one peer restarted from a snapshot —
  // every peer must still end byte-identical to the reference chain.
  ClusterConfig config = small_config();
  config.seed = 31;
  config.gossip.faults = net::FaultConfig::uniform_loss(0.10, /*seed=*/47);
  config.data_dir = temp_dir("bm_cluster_test_drill");
  config.snapshot_interval = 3;
  config.catch_up_threshold = 3;
  sim::Simulation sim;
  ClusterDeployment cluster(sim, config);

  ASSERT_TRUE(cluster.run_until_blocks(5, 120 * sim::kSecond));
  cluster.crash_peer(1);

  const int old_leader = cluster.leader();
  ASSERT_GE(old_leader, 0);
  cluster.kill_orderer(old_leader);
  ASSERT_TRUE(cluster.run_until_blocks(10, 600 * sim::kSecond));

  cluster.restart_peer(1);
  ASSERT_TRUE(cluster.run_until_blocks(14, 600 * sim::kSecond));
  cluster.settle(5 * sim::kSecond);

  EXPECT_EQ(cluster.blocks_emitted(), 14u);
  EXPECT_EQ(cluster.ordering().forks_detected(), 0u);
  EXPECT_EQ(cluster.state_transfers(), 1u);
  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  for (int peer = 0; peer < cluster.peer_count(); ++peer)
    EXPECT_EQ(cluster.peer_height(peer), 14u) << "peer " << peer;
  expect_chains_byte_identical(cluster);
  std::filesystem::remove_all(config.data_dir);
}

TEST(Cluster, LaggingPeerRepairsViaGossipBelowThreshold) {
  // A small gap (below catch_up_threshold) is not worth a snapshot shot:
  // the restarted peer must converge through gossip anti-entropy alone.
  ClusterConfig config = small_config();
  config.seed = 37;
  config.catch_up_threshold = 100;  // never state-transfer
  sim::Simulation sim;
  ClusterDeployment cluster(sim, config);
  ASSERT_TRUE(cluster.run_until_blocks(3, 120 * sim::kSecond));
  cluster.crash_peer(0);
  ASSERT_TRUE(cluster.run_until_blocks(6, 600 * sim::kSecond));
  cluster.restart_peer(0);
  cluster.settle(10 * sim::kSecond);

  EXPECT_EQ(cluster.state_transfers(), 0u);
  EXPECT_EQ(cluster.peer_height(0), 6u);
  EXPECT_TRUE(cluster.converged()) << cluster.divergence();
  expect_chains_byte_identical(cluster);
}

}  // namespace
}  // namespace bm::cluster
