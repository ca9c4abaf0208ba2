#include <gtest/gtest.h>

#include "net/gossip.hpp"
#include "workload/metrics.hpp"

namespace bm::net {
namespace {

struct GossipHarness {
  GossipHarness(int peers, GossipNetwork::Config config)
      : network(sim, peers, config) {
    network.set_payload_callback(
        [this](int peer, std::uint64_t block, const Bytes&) {
          deliveries[block].push_back(peer);
          delivery_times[block].push_back(
              static_cast<double>(sim.now() - publish_times[block]) /
              sim::kMillisecond);
        });
  }

  void publish(std::uint64_t block, std::size_t bytes) {
    publish_times[block] = sim.now();
    network.publish(0, block, Bytes(bytes));
  }

  sim::Simulation sim;
  GossipNetwork network;
  std::map<std::uint64_t, std::vector<int>> deliveries;
  std::map<std::uint64_t, std::vector<double>> delivery_times;
  std::map<std::uint64_t, sim::Time> publish_times;
};

TEST(Gossip, PushReachesAllPeersLossless) {
  GossipHarness harness(10, {});
  harness.publish(0, 100'000);
  harness.sim.run();
  EXPECT_EQ(harness.deliveries[0].size(), 10u);
  for (int peer = 0; peer < 10; ++peer)
    EXPECT_TRUE(harness.network.peer_has(peer, 0));
  // Duplicates exist (fanout redundancy) but are bounded by total pushes.
  EXPECT_GT(harness.network.messages_sent(), 9u);
}

TEST(Gossip, DeliversExactlyOncePerPeer) {
  // Push gossip with bounded fanout is probabilistic (a rumor can die out
  // before covering the mesh); anti-entropy guarantees convergence.
  GossipHarness harness(8, {});
  harness.network.start_anti_entropy();
  for (std::uint64_t block = 0; block < 5; ++block)
    harness.publish(block, 50'000);
  harness.sim.run_until(harness.sim.now() + 2 * sim::kSecond);
  harness.network.stop_anti_entropy();
  for (std::uint64_t block = 0; block < 5; ++block) {
    auto& delivered = harness.deliveries[block];
    std::sort(delivered.begin(), delivered.end());
    EXPECT_TRUE(std::adjacent_find(delivered.begin(), delivered.end()) ==
                delivered.end());
    EXPECT_EQ(delivered.size(), 8u);
  }
}

TEST(Gossip, AntiEntropyRepairsLosses) {
  GossipNetwork::Config config;
  // Heavy uniform push loss, through the fault layer (its own seed keeps
  // the topology RNG untouched).
  config.faults = FaultConfig::uniform_loss(0.4, /*seed=*/17);
  config.seed = 17;
  GossipHarness harness(10, config);
  harness.network.start_anti_entropy();
  harness.publish(0, 80'000);
  harness.publish(1, 80'000);
  harness.sim.run_until(harness.sim.now() + 3 * sim::kSecond);
  harness.network.stop_anti_entropy();

  int have = 0;
  for (int peer = 0; peer < 10; ++peer)
    for (std::uint64_t block = 0; block < 2; ++block)
      have += harness.network.peer_has(peer, block) ? 1 : 0;
  EXPECT_EQ(have, 20) << "anti-entropy must repair every gap";
}

TEST(Gossip, AntiEntropyRepairsBurstLosses) {
  // Uniform i.i.d. loss (above) is the easy case; real gossip meshes see
  // correlated bursts. Drive the push path through a Gilbert–Elliott
  // injector (Config::faults) and verify the digest-exchange repair still
  // converges even when whole fanout rounds die together.
  GossipNetwork::Config config;
  config.seed = 23;
  config.faults.loss_good = 0.05;
  config.faults.loss_bad = 0.85;       // near-total loss in bursts
  config.faults.p_good_to_bad = 0.08;
  config.faults.p_bad_to_good = 0.2;
  config.faults.seed = 31;
  GossipHarness harness(10, config);
  harness.network.start_anti_entropy();
  for (std::uint64_t block = 0; block < 3; ++block)
    harness.publish(block, 80'000);
  harness.sim.run_until(harness.sim.now() + 5 * sim::kSecond);
  harness.network.stop_anti_entropy();

  int have = 0;
  for (int peer = 0; peer < 10; ++peer)
    for (std::uint64_t block = 0; block < 3; ++block)
      have += harness.network.peer_has(peer, block) ? 1 : 0;
  EXPECT_EQ(have, 30) << "anti-entropy must repair burst losses too";

  // The injector actually produced correlated losses.
  const FaultStats* stats = harness.network.fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->dropped_loss, 0u);
  EXPECT_GT(stats->bad_state_frames, 0u);
}

TEST(Gossip, SmallerBlocksDisseminateFaster) {
  // §5: using the BMac protocol encoding (4-5x smaller) for intra-org
  // dissemination cuts gossip latency.
  GossipNetwork::Config config;
  config.seed = 4;
  GossipHarness full(12, config);
  GossipHarness compact(12, config);
  full.publish(0, 490'000);     // Gossip-encoded 150-tx block
  compact.publish(0, 117'000);  // BMac-protocol encoding of the same block
  full.sim.run();
  compact.sim.run();

  const double full_p95 = workload::percentile(full.delivery_times[0], 95);
  const double compact_p95 =
      workload::percentile(compact.delivery_times[0], 95);
  EXPECT_LT(compact_p95, full_p95);
  EXPECT_GT(full_p95 / compact_p95, 1.5);  // size-dominated dissemination
}

TEST(Gossip, DeterministicForSeed) {
  auto run_once = [] {
    GossipNetwork::Config config;
    config.seed = 9;
    GossipHarness harness(6, config);
    harness.publish(0, 10'000);
    harness.sim.run();
    return harness.network.messages_sent();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Gossip, SinglePeerNetworkTrivial) {
  GossipHarness harness(1, {});
  harness.publish(0, 1000);
  harness.sim.run();
  EXPECT_EQ(harness.deliveries[0].size(), 1u);
  EXPECT_EQ(harness.network.messages_sent(), 0u);
}

TEST(Gossip, OutOfRangePeerThrows) {
  // Regression: peer_has/publish (and the lifecycle calls) used to index
  // peers_ unchecked, so a bad peer id was silent UB instead of an error.
  GossipHarness harness(4, {});
  EXPECT_THROW(harness.network.peer_has(-1, 0), std::out_of_range);
  EXPECT_THROW(harness.network.peer_has(4, 0), std::out_of_range);
  EXPECT_THROW(harness.network.publish(-1, 0, Bytes(100)), std::out_of_range);
  EXPECT_THROW(harness.network.publish(7, 0, to_bytes("payload")),
               std::out_of_range);
  EXPECT_THROW(harness.network.set_peer_online(4, false), std::out_of_range);
  EXPECT_THROW(harness.network.reset_peer(-2), std::out_of_range);
  EXPECT_THROW(harness.network.mark_known(5, 1), std::out_of_range);
  // In-range calls still work after the failed ones.
  harness.publish(0, 1000);
  harness.sim.run();
  EXPECT_TRUE(harness.network.peer_has(3, 0));
}

TEST(Gossip, PayloadDeliveredOncePerPeer) {
  GossipHarness harness(6, {});
  std::map<int, std::vector<std::uint64_t>> payload_deliveries;
  harness.network.set_payload_callback(
      [&](int peer, std::uint64_t block, const Bytes& payload) {
        EXPECT_EQ(to_string(payload), "block" + std::to_string(block));
        payload_deliveries[peer].push_back(block);
      });
  harness.network.start_anti_entropy();
  harness.network.publish(0, 0, to_bytes("block0"));
  harness.network.publish(0, 1, to_bytes("block1"));
  harness.sim.run_until(harness.sim.now() + 2 * sim::kSecond);
  harness.network.stop_anti_entropy();
  for (int peer = 0; peer < 6; ++peer) {
    auto& blocks = payload_deliveries[peer];
    std::sort(blocks.begin(), blocks.end());
    EXPECT_EQ(blocks, (std::vector<std::uint64_t>{0, 1})) << "peer " << peer;
  }
}

TEST(Gossip, RepublishKeepsFirstPayload) {
  GossipHarness harness(4, {});
  Bytes seen;
  harness.network.set_payload_callback(
      [&](int peer, std::uint64_t, const Bytes& payload) {
        if (peer == 3) seen = payload;
      });
  harness.network.start_anti_entropy();
  harness.network.publish(0, 0, to_bytes("canonical"));
  harness.network.publish(1, 0, to_bytes("imposter"));  // not re-registered
  harness.sim.run_until(harness.sim.now() + sim::kSecond);
  harness.network.stop_anti_entropy();
  EXPECT_EQ(to_string(seen), "canonical");
}

TEST(Gossip, OfflinePeerMissesBlocksUntilRepair) {
  GossipNetwork::Config config;
  config.seed = 11;
  GossipHarness harness(6, config);
  harness.network.set_peer_online(5, false);
  harness.network.start_anti_entropy();
  harness.publish(0, 40'000);
  harness.sim.run_until(harness.sim.now() + 2 * sim::kSecond);

  // Anti-entropy converged every online peer, but the offline one stayed
  // dark — pushes and digest exchanges aimed at it were dropped.
  EXPECT_FALSE(harness.network.peer_has(5, 0));
  EXPECT_GT(harness.network.dropped_offline(), 0u);
  for (int peer = 0; peer < 5; ++peer)
    EXPECT_TRUE(harness.network.peer_has(peer, 0)) << "peer " << peer;

  // Back online, anti-entropy closes the gap.
  harness.network.set_peer_online(5, true);
  harness.sim.run_until(harness.sim.now() + 2 * sim::kSecond);
  harness.network.stop_anti_entropy();
  EXPECT_TRUE(harness.network.peer_has(5, 0));
}

TEST(Gossip, MarkKnownSuppressesRedelivery) {
  GossipHarness harness(5, {});
  int deliveries_to_4 = 0;
  harness.network.set_payload_callback(
      [&](int peer, std::uint64_t, const Bytes&) {
        if (peer == 4) ++deliveries_to_4;
      });
  // State transfer already handed peer 4 the block out of band.
  harness.network.mark_known(4, 0);
  harness.network.start_anti_entropy();
  harness.network.publish(0, 0, to_bytes("block0"));
  harness.sim.run_until(harness.sim.now() + sim::kSecond);
  harness.network.stop_anti_entropy();
  EXPECT_EQ(deliveries_to_4, 0);
  EXPECT_TRUE(harness.network.peer_has(4, 0));
}

}  // namespace
}  // namespace bm::net
