#include <gtest/gtest.h>

#include "fabric/raft.hpp"
#include "fabric/transaction.hpp"
#include "fabric/validator.hpp"

namespace bm::fabric {
namespace {

struct RaftHarness {
  explicit RaftHarness(int nodes, double loss = 0.0, std::uint64_t seed = 1) {
    RaftOrderingService::Config config;
    config.nodes = nodes;
    config.max_tx_per_block = 3;
    config.faults = net::FaultConfig::uniform_loss(loss, seed);
    config.seed = seed;
    build(config);
  }

  /// Full-config variant for transport-fault / partition scenarios.
  explicit RaftHarness(RaftOrderingService::Config config) { build(config); }

  void build(RaftOrderingService::Config config) {
    auto& org = msp.add_org("Org1");
    std::vector<Identity> identities;
    for (int i = 0; i < config.nodes; ++i)
      identities.push_back(org.issue(Role::kOrderer,
                                     static_cast<std::uint8_t>(i),
                                     "orderer" + std::to_string(i) + ".org1"));
    service = std::make_unique<RaftOrderingService>(sim, config,
                                                    std::move(identities));
    service->set_block_callback(
        [this](Block block) { blocks.push_back(std::move(block)); });
    service->start();
  }

  /// Run until a leader exists (bounded).
  bool elect() {
    for (int i = 0; i < 100 && service->leader() < 0; ++i)
      sim.run_until(sim.now() + 100 * sim::kMillisecond);
    return service->leader() >= 0;
  }

  Msp msp;
  sim::Simulation sim;
  std::unique_ptr<RaftOrderingService> service;
  std::vector<Block> blocks;
};

TEST(Raft, ElectsExactlyOneLeader) {
  RaftHarness harness(3);
  ASSERT_TRUE(harness.elect());
  int leaders = 0;
  for (std::size_t i = 0; i < harness.service->node_count(); ++i)
    if (harness.service->node(static_cast<int>(i)).role() == RaftRole::kLeader)
      ++leaders;
  EXPECT_EQ(leaders, 1);
}

TEST(Raft, SingleNodeClusterSelfElects) {
  RaftHarness harness(1);
  ASSERT_TRUE(harness.elect());
  EXPECT_EQ(harness.service->leader(), 0);
  EXPECT_TRUE(harness.service->submit(to_bytes("tx")));
}

TEST(Raft, ReplicatesAndCommitsEntries) {
  RaftHarness harness(3);
  ASSERT_TRUE(harness.elect());
  for (int i = 0; i < 9; ++i)
    ASSERT_TRUE(harness.service->submit(to_bytes("env" + std::to_string(i))));
  harness.sim.run_until(harness.sim.now() + sim::kSecond);

  // All nodes committed all 9 entries, identically.
  for (std::size_t n = 0; n < harness.service->node_count(); ++n) {
    const auto& node = harness.service->node(static_cast<int>(n));
    EXPECT_EQ(node.commit_index(), 9u) << "node " << n;
    for (std::uint64_t i = 1; i <= 9; ++i)
      EXPECT_EQ(to_string(node.log_at(i).payload),
                "env" + std::to_string(i - 1));
  }
  // Block cutter (batch 3): three blocks from the lead orderer.
  EXPECT_EQ(harness.blocks.size(), 3u);
  EXPECT_EQ(harness.blocks[0].tx_count(), 3u);
  EXPECT_EQ(harness.blocks[2].header.number, 2u);
}

TEST(Raft, SurvivesMessageLoss) {
  RaftHarness harness(3, /*loss=*/0.10, /*seed=*/5);
  ASSERT_TRUE(harness.elect());
  for (int i = 0; i < 6; ++i) {
    // Under loss, the leader may change; retry submission.
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (harness.service->submit(to_bytes("env" + std::to_string(i)))) break;
      harness.sim.run_until(harness.sim.now() + 100 * sim::kMillisecond);
    }
  }
  harness.sim.run_until(harness.sim.now() + 5 * sim::kSecond);
  const int lead = harness.service->leader();
  ASSERT_GE(lead, 0);
  EXPECT_GE(harness.service->node(lead).commit_index(), 6u);
}

TEST(Raft, LeaderFailureTriggersReElection) {
  RaftHarness harness(3);
  ASSERT_TRUE(harness.elect());
  const int first_leader = harness.service->leader();
  ASSERT_TRUE(harness.service->submit(to_bytes("pre-crash")));
  harness.sim.run_until(harness.sim.now() + 500 * sim::kMillisecond);

  harness.service->stop_node(first_leader);
  ASSERT_TRUE(harness.elect());
  const int second_leader = harness.service->leader();
  EXPECT_NE(second_leader, first_leader);

  // The new leader still carries the committed entry and keeps ordering.
  EXPECT_GE(harness.service->node(second_leader).commit_index(), 1u);
  ASSERT_TRUE(harness.service->submit(to_bytes("post-crash")));
  harness.sim.run_until(harness.sim.now() + sim::kSecond);
  EXPECT_GE(harness.service->node(second_leader).commit_index(), 2u);
}

TEST(Raft, RecoveredNodeCatchesUp) {
  RaftHarness harness(3);
  ASSERT_TRUE(harness.elect());
  const int leader = harness.service->leader();
  const int victim = (leader + 1) % 3;
  harness.service->stop_node(victim);

  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(harness.service->submit(to_bytes("env" + std::to_string(i))));
  harness.sim.run_until(harness.sim.now() + sim::kSecond);

  harness.service->restart_node(victim);
  harness.sim.run_until(harness.sim.now() + 2 * sim::kSecond);
  EXPECT_EQ(harness.service->node(victim).commit_index(), 6u);
  for (std::uint64_t i = 1; i <= 6; ++i)
    EXPECT_EQ(to_string(harness.service->node(victim).log_at(i).payload),
              "env" + std::to_string(i - 1));
}

TEST(Raft, LogsStayConsistentAcrossNodes) {
  RaftHarness harness(5, /*loss=*/0.05, /*seed=*/11);
  ASSERT_TRUE(harness.elect());
  for (int i = 0; i < 12; ++i) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (harness.service->submit(to_bytes("e" + std::to_string(i)))) break;
      harness.sim.run_until(harness.sim.now() + 50 * sim::kMillisecond);
    }
  }
  harness.sim.run_until(harness.sim.now() + 5 * sim::kSecond);

  // Raft safety: committed prefixes agree everywhere.
  std::uint64_t min_commit = ~0ull;
  for (std::size_t n = 0; n < harness.service->node_count(); ++n)
    min_commit = std::min(
        min_commit, harness.service->node(static_cast<int>(n)).commit_index());
  EXPECT_GE(min_commit, 1u);
  for (std::uint64_t i = 1; i <= min_commit; ++i) {
    const auto& reference = harness.service->node(0).log_at(i);
    for (std::size_t n = 1; n < harness.service->node_count(); ++n) {
      const auto& entry =
          harness.service->node(static_cast<int>(n)).log_at(i);
      EXPECT_EQ(entry.term, reference.term) << "index " << i;
      EXPECT_TRUE(equal(entry.payload, reference.payload)) << "index " << i;
    }
  }
}

/// Raft safety invariant, reusable across the fault-scenario tests below:
/// every node's committed prefix matches node 0's, entry by entry.
void expect_committed_prefixes_agree(RaftOrderingService& service) {
  std::uint64_t min_commit = ~0ull;
  for (std::size_t n = 0; n < service.node_count(); ++n)
    min_commit =
        std::min(min_commit, service.node(static_cast<int>(n)).commit_index());
  for (std::uint64_t i = 1; i <= min_commit; ++i) {
    const auto& reference = service.node(0).log_at(i);
    for (std::size_t n = 1; n < service.node_count(); ++n) {
      const auto& entry = service.node(static_cast<int>(n)).log_at(i);
      EXPECT_EQ(entry.term, reference.term) << "index " << i;
      EXPECT_TRUE(equal(entry.payload, reference.payload)) << "index " << i;
    }
  }
}

TEST(Raft, LivenessSoakUnderBurstLoss) {
  // Gilbert–Elliott burst loss on the transport (Config::faults), far
  // nastier than i.i.d. loss: whole heartbeat rounds die together,
  // forcing spurious elections mid-stream. The cluster must keep committing,
  // the committed prefixes must never diverge, and the emitted block stream
  // must never fork.
  RaftOrderingService::Config config;
  config.nodes = 5;
  config.max_tx_per_block = 3;
  config.seed = 29;
  config.faults.loss_good = 0.02;
  config.faults.loss_bad = 0.6;
  config.faults.p_good_to_bad = 0.04;
  config.faults.p_bad_to_good = 0.15;
  config.faults.seed = 37;
  RaftHarness harness(config);
  ASSERT_TRUE(harness.elect());

  for (int i = 0; i < 24; ++i) {
    // Leadership churns under bursts; retry like a Fabric client would.
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (harness.service->submit(to_bytes("soak" + std::to_string(i)))) break;
      harness.sim.run_until(harness.sim.now() + 50 * sim::kMillisecond);
    }
    harness.sim.run_until(harness.sim.now() + 20 * sim::kMillisecond);
  }
  harness.sim.run_until(harness.sim.now() + 10 * sim::kSecond);

  // Liveness: the cluster made real progress despite the bursts.
  const int lead = harness.service->leader();
  ASSERT_GE(lead, 0);
  EXPECT_GE(harness.service->node(lead).commit_index(), 12u);
  EXPECT_GE(harness.service->blocks_emitted(), 4u);

  // Safety: no divergence, no forked emission, ever.
  expect_committed_prefixes_agree(*harness.service);
  EXPECT_EQ(harness.service->forks_detected(), 0u);

  // The injector really ran (burst machine visited the bad state).
  const net::FaultStats* stats = harness.service->fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->dropped_loss, 0u);
  EXPECT_GT(stats->bad_state_frames, 0u);
}

TEST(Raft, MinorityLeaderStepsDownAcrossPartitionWindow) {
  // Scheduled partition window with the current leader caught on the
  // minority side: the majority must elect a replacement during the window,
  // and after the heal the deposed leader must step down to the higher term
  // instead of splitting the log.
  RaftOrderingService::Config config;
  config.nodes = 5;
  config.max_tx_per_block = 3;
  config.seed = 41;
  RaftHarness harness(config);
  ASSERT_TRUE(harness.elect());
  const int old_leader = harness.service->leader();
  const std::uint64_t old_term = harness.service->node(old_leader).term();

  // An entry committed before the window must survive everywhere after it.
  ASSERT_TRUE(harness.service->submit(to_bytes("pre-partition")));
  harness.sim.run_until(harness.sim.now() + 500 * sim::kMillisecond);
  ASSERT_GE(harness.service->node(old_leader).commit_index(), 1u);

  const int fellow = (old_leader + 1) % config.nodes;
  const sim::Time start = harness.sim.now() + 100 * sim::kMillisecond;
  const sim::Time end = start + 3 * sim::kSecond;
  harness.service->add_partition(start, end, {old_leader, fellow});
  harness.sim.run_until(end);

  // During the window the majority side elected a replacement; the stranded
  // leader (no quorum) could not have committed anything new.
  int majority_leader = -1;
  for (int n = 0; n < config.nodes; ++n) {
    if (n == old_leader || n == fellow) continue;
    if (harness.service->node(n).role() == RaftRole::kLeader)
      majority_leader = n;
  }
  ASSERT_GE(majority_leader, 0) << "majority side must elect during window";
  EXPECT_GT(harness.service->node(majority_leader).term(), old_term);
  EXPECT_GT(harness.service->partition_drops(), 0u);
  EXPECT_EQ(harness.service->node(old_leader).commit_index(), 1u);

  // Heal and settle: the old leader sees the higher term and steps down.
  harness.sim.run_until(harness.sim.now() + 2 * sim::kSecond);
  EXPECT_NE(harness.service->node(old_leader).role(), RaftRole::kLeader);
  int leaders = 0;
  for (int n = 0; n < config.nodes; ++n)
    if (harness.service->node(n).role() == RaftRole::kLeader) ++leaders;
  EXPECT_EQ(leaders, 1);

  // Post-heal the reunified cluster keeps ordering, and nothing diverged.
  ASSERT_TRUE(harness.service->submit(to_bytes("post-heal")));
  harness.sim.run_until(harness.sim.now() + sim::kSecond);
  for (std::size_t n = 0; n < harness.service->node_count(); ++n)
    EXPECT_GE(harness.service->node(static_cast<int>(n)).commit_index(), 2u)
        << "node " << n;
  expect_committed_prefixes_agree(*harness.service);
  EXPECT_EQ(harness.service->forks_detected(), 0u);
}

TEST(Raft, OrderedBlocksValidateEndToEnd) {
  // Raft-ordered blocks with real envelopes pass the software validator —
  // the ordering service substrate plugs into the rest of the system.
  Msp msp;
  auto& org1 = msp.add_org("Org1");
  auto& org2 = msp.add_org("Org2");
  const Identity client = org1.issue(Role::kClient, 0, "c0");
  const Identity peer1 = org1.issue(Role::kPeer, 0, "p1");
  const Identity peer2 = org2.issue(Role::kPeer, 0, "p2");
  std::vector<Identity> orderers;
  for (int i = 0; i < 3; ++i)
    orderers.push_back(org1.issue(Role::kOrderer,
                                  static_cast<std::uint8_t>(i),
                                  "orderer" + std::to_string(i)));

  sim::Simulation sim;
  RaftOrderingService::Config config;
  config.nodes = 3;
  config.max_tx_per_block = 4;
  RaftOrderingService service(sim, config, std::move(orderers));
  std::vector<Block> blocks;
  service.set_block_callback([&](Block b) { blocks.push_back(std::move(b)); });
  service.start();
  for (int i = 0; i < 50 && service.leader() < 0; ++i)
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  ASSERT_GE(service.leader(), 0);

  for (int i = 0; i < 8; ++i) {
    TxProposal proposal;
    proposal.channel_id = "ch";
    proposal.chaincode_id = "smallbank";
    proposal.tx_id = "tx" + std::to_string(i);
    proposal.rwset.writes.push_back({"k" + std::to_string(i), to_bytes("v")});
    ASSERT_TRUE(service.submit(build_envelope(proposal, client,
                                              {&peer1, &peer2})));
  }
  sim.run_until(sim.now() + sim::kSecond);
  ASSERT_EQ(blocks.size(), 2u);

  std::map<std::string, EndorsementPolicy> policies;
  policies.emplace("smallbank",
                   parse_policy_or_throw("Org1 & Org2", msp.org_names()));
  SoftwareValidator validator(msp, policies);
  StateDb db;
  Ledger ledger;
  for (const auto& block : blocks) {
    const auto result = validator.validate_and_commit(block, db, ledger);
    EXPECT_TRUE(result.block_valid);
    EXPECT_EQ(result.valid_tx_count, 4u);
  }
  EXPECT_EQ(db.size(), 8u);
}

}  // namespace
}  // namespace bm::fabric
