#include <gtest/gtest.h>

#include "bmac/block_processor.hpp"
#include "bmac/peer.hpp"
#include "workload/synthetic.hpp"

namespace bm::bmac {
namespace {

using fabric::TxValidationCode;
using fabric::Version;

// --- HwKvStore ---------------------------------------------------------------

TEST(HwKvStore, BasicReadWrite) {
  HwKvStore db(8);
  EXPECT_FALSE(db.lookup("k").has_value());
  EXPECT_TRUE(db.write("k", to_bytes("v1"), Version{1, 0}));
  const auto v = db.lookup("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(v->value), "v1");
  EXPECT_EQ(v->version, (Version{1, 0}));
}

TEST(HwKvStore, CapacityOverflow) {
  HwKvStore db(4);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(db.write("k" + std::to_string(i), to_bytes("v"), Version{}));
  EXPECT_FALSE(db.write("k4", to_bytes("v"), Version{}));
  EXPECT_EQ(db.overflows(), 1u);
  // Overwrites of existing keys still succeed at capacity.
  EXPECT_TRUE(db.write("k0", to_bytes("v2"), Version{2, 0}));
  EXPECT_EQ(db.size(), 4u);
}

TEST(HwKvStore, VersionMatching) {
  HwKvStore db(8);
  db.write("k", to_bytes("v"), Version{3, 7});
  EXPECT_TRUE(db.version_matches("k", Version{3, 7}));
  EXPECT_FALSE(db.version_matches("k", Version{3, 8}));
  EXPECT_FALSE(db.version_matches("k", std::nullopt));
  EXPECT_TRUE(db.version_matches("absent", std::nullopt));
}

// --- BlockProcessor DES ------------------------------------------------------

struct HwHarness {
  explicit HwHarness(HwConfig config = {}) : processor(sim, config, circuits()) {
    processor.start();
  }

  static std::map<std::string, PolicyCircuit> circuits() {
    fabric::Msp msp;
    msp.add_org("Org1");
    msp.add_org("Org2");
    msp.add_org("Org3");
    std::map<std::string, fabric::EndorsementPolicy> policies;
    policies.emplace("smallbank", fabric::parse_policy_or_throw(
                                      "2-outof-2 orgs", msp.org_names()));
    policies.emplace("twoofthree", fabric::parse_policy_or_throw(
                                       "2-outof-3 orgs", msp.org_names()));
    return compile_policies(policies, msp);
  }

  /// Feed one block of synthetic transactions; ends[i] lists
  /// (org, verification result) per endorsement of tx i.
  void feed_block(
      std::uint64_t num,
      const std::vector<std::vector<std::pair<int, bool>>>& ends_per_tx,
      bool block_ok = true, const std::string& chaincode = "smallbank",
      const std::vector<bool>& creator_ok = {}) {
    for (std::size_t i = 0; i < ends_per_tx.size(); ++i) {
      for (const auto& [org, ok] : ends_per_tx[i]) {
        EndsEntry end;
        end.endorser = fabric::EncodedId::make(static_cast<std::uint8_t>(org),
                                               fabric::Role::kPeer, 0);
        end.verify = VerifyRequest::assumed(ok);
        ASSERT_TRUE(processor.ends_fifo().try_put(std::move(end)));
      }
      TxEntry tx;
      tx.block_num = num;
      tx.tx_seq = static_cast<std::uint32_t>(i);
      tx.chaincode_id = chaincode;
      tx.verify = VerifyRequest::assumed(
          creator_ok.empty() ? true : creator_ok[i]);
      tx.endorsement_count = static_cast<std::uint16_t>(ends_per_tx[i].size());
      ASSERT_TRUE(processor.tx_fifo().try_put(std::move(tx)));
    }
    BlockEntry block;
    block.block_num = num;
    block.tx_count = static_cast<std::uint32_t>(ends_per_tx.size());
    block.verify = VerifyRequest::assumed(block_ok);
    ASSERT_TRUE(processor.block_fifo().try_put(std::move(block)));
  }

  ResultEntry run_and_get() {
    ResultEntry out;
    bool got = false;
    // Drain reg_map via polling within the simulation.
    while (!got) {
      if (!sim.step()) break;
      if (auto r = processor.reg_map().try_get()) {
        out = std::move(*r);
        got = true;
      }
    }
    EXPECT_TRUE(got);
    return out;
  }

  sim::Simulation sim;
  BlockProcessor processor;
};

TEST(BlockProcessorTest, AllValidTransactions) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, true}},
                    {{1, true}, {2, true}},
                    {{1, true}, {2, true}}});
  const ResultEntry result = hw.run_and_get();
  EXPECT_TRUE(result.block_valid);
  ASSERT_EQ(result.flags.size(), 3u);
  for (const auto flag : result.flags) EXPECT_EQ(flag, TxValidationCode::kValid);
  EXPECT_EQ(hw.processor.monitor().valid_transactions, 3u);
}

TEST(BlockProcessorTest, InvalidBlockSkipsEverything) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, true}}, {{1, true}, {2, true}}},
                /*block_ok=*/false);
  const ResultEntry result = hw.run_and_get();
  EXPECT_FALSE(result.block_valid);
  for (const auto flag : result.flags)
    EXPECT_EQ(flag, TxValidationCode::kNotValidated);
  // Engine skip mechanism: only the block check ran.
  EXPECT_EQ(result.stats.ecdsa_executed, 1u);
  EXPECT_EQ(result.stats.ecdsa_skipped, 2u * 3u);  // 2 tx * (1 creator + 2 ends)
}

TEST(BlockProcessorTest, BadCreatorSignatureDiscardsEndorsements) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, true}}, {{1, true}, {2, true}}},
                true, "smallbank", {false, true});
  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kBadCreatorSignature);
  EXPECT_EQ(result.flags[1], TxValidationCode::kValid);
  // tx0's endorsements were discarded without engine work.
  EXPECT_EQ(result.stats.ecdsa_skipped, 2u);
}

TEST(BlockProcessorTest, PolicyFailureWhenEndorsementInvalid) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, false}},   // Org2 sig invalid -> fail
                    {{1, true}, {2, true}}});
  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kEndorsementPolicyFailure);
  EXPECT_EQ(result.flags[1], TxValidationCode::kValid);
}

TEST(BlockProcessorTest, UnknownChaincodeInvalid) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, true}}}, true, "nonexistent");
  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kInvalidEndorserTransaction);
}

TEST(BlockProcessorTest, ShortCircuitSkipsUnneededEndorsements) {
  // 2-of-3 policy with 2 engines: the first round (orgs 1,2) satisfies the
  // policy, so the third endorsement must be skipped (Fig. 7e's win).
  HwConfig config;
  config.engines_per_vscc = 2;
  HwHarness hw(config);
  hw.feed_block(0, {{{1, true}, {2, true}, {3, true}}}, true, "twoofthree");
  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kValid);
  EXPECT_EQ(result.stats.ecdsa_skipped, 1u);
  EXPECT_EQ(result.stats.ecdsa_executed, 1u + 1u + 2u);  // block + creator + 2 ends
}

TEST(BlockProcessorTest, ShortCircuitRecoversFromInvalidEndorsement) {
  // 2-of-3, first endorsement invalid: needs a second round and still
  // validates via orgs 2+3.
  HwConfig config;
  config.engines_per_vscc = 2;
  HwHarness hw(config);
  hw.feed_block(0, {{{1, false}, {2, true}, {3, true}}}, true, "twoofthree");
  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kValid);
  EXPECT_EQ(result.stats.ecdsa_skipped, 0u);
}

TEST(BlockProcessorTest, PolicyUnsatisfiableAfterAllEndorsements) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}}});  // 2of2 needs both orgs
  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kEndorsementPolicyFailure);
}

TEST(BlockProcessorTest, MvccThroughHardwareDatabase) {
  HwHarness hw;
  // tx0 writes k (no reads). tx1 reads k expecting absent -> conflict,
  // because tx0 committed first within the same block.
  for (int i = 0; i < 2; ++i) {
    for (const auto org : {1, 2}) {
      EndsEntry end;
      end.endorser = fabric::EncodedId::make(static_cast<std::uint8_t>(org),
                                             fabric::Role::kPeer, 0);
      end.verify = VerifyRequest::assumed(true);
      ASSERT_TRUE(hw.processor.ends_fifo().try_put(std::move(end)));
    }
    TxEntry tx;
    tx.block_num = 0;
    tx.tx_seq = static_cast<std::uint32_t>(i);
    tx.chaincode_id = "smallbank";
    tx.verify = VerifyRequest::assumed(true);
    tx.endorsement_count = 2;
    if (i == 0) {
      tx.write_count = 1;
      ASSERT_TRUE(hw.processor.wrset_fifo().try_put(
          WrsetEntry{"k", to_bytes("v0")}));
    } else {
      tx.read_count = 1;
      tx.write_count = 1;
      ASSERT_TRUE(hw.processor.rdset_fifo().try_put(
          RdsetEntry{"k", std::nullopt}));
      ASSERT_TRUE(hw.processor.wrset_fifo().try_put(
          WrsetEntry{"k", to_bytes("v1")}));
    }
    ASSERT_TRUE(hw.processor.tx_fifo().try_put(std::move(tx)));
  }
  BlockEntry block;
  block.block_num = 0;
  block.tx_count = 2;
  block.verify = VerifyRequest::assumed(true);
  ASSERT_TRUE(hw.processor.block_fifo().try_put(std::move(block)));

  const ResultEntry result = hw.run_and_get();
  EXPECT_EQ(result.flags[0], TxValidationCode::kValid);
  EXPECT_EQ(result.flags[1], TxValidationCode::kMvccReadConflict);
  // tx1's write skipped: value and version still from tx0.
  const auto v = hw.processor.statedb().lookup("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(v->value), "v0");
  EXPECT_EQ(v->version, (Version{0, 0}));
}

TEST(BlockProcessorTest, InOrderCollectionWithHeterogeneousWork) {
  // Transactions with wildly different endorsement counts must still come
  // out in program order (tx_collector, §3.3).
  HwConfig config;
  config.tx_validators = 4;
  config.engines_per_vscc = 1;  // force multiple rounds for 2 ends
  HwHarness hw(config);
  std::vector<std::vector<std::pair<int, bool>>> ends;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0)
      ends.push_back({{1, true}, {2, true}});  // slow (2 rounds)
    else
      ends.push_back({{1, true}, {2, true}});
  }
  // Mix in failures to vary vscc completion times further.
  ends[5] = {{1, false}};
  hw.feed_block(0, ends);
  const ResultEntry result = hw.run_and_get();
  ASSERT_EQ(result.flags.size(), 12u);
  EXPECT_EQ(result.flags[5], TxValidationCode::kEndorsementPolicyFailure);
  for (std::size_t i = 0; i < 12; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(result.flags[i], TxValidationCode::kValid) << i;
  }
}

TEST(BlockProcessorTest, RegMapBlocksUntilHostReads) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, true}}});
  hw.feed_block(1, {{{1, true}, {2, true}}});
  hw.feed_block(2, {{{1, true}, {2, true}}});
  hw.sim.run();  // nobody reads reg_map
  // Only one result can sit in reg_map; the rest are queued behind it.
  EXPECT_EQ(hw.processor.reg_map().size(), 1u);
  auto first = hw.processor.reg_map().try_get();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->block_num, 0u);
  hw.sim.run();  // reg_map writer advances
  auto second = hw.processor.reg_map().try_get();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->block_num, 1u);
}

TEST(BlockProcessorTest, MonitorAggregatesAcrossBlocks) {
  HwHarness hw;
  hw.feed_block(0, {{{1, true}, {2, true}}});
  (void)hw.run_and_get();
  hw.feed_block(1, {{{1, true}, {2, true}}, {{1, true}, {2, true}}});
  (void)hw.run_and_get();
  const MonitorStats& m = hw.processor.monitor();
  EXPECT_EQ(m.blocks, 2u);
  EXPECT_EQ(m.transactions, 3u);
  EXPECT_EQ(m.valid_transactions, 3u);
  // 2 block checks + 3 creator + 6 endorsement verifications.
  EXPECT_EQ(m.ecdsa_executed, 2u + 3u + 6u);
  EXPECT_GT(m.total_block_latency, 0);
}

TEST(BlockProcessorTest, TxLatencyAroundPaperValue) {
  // §4.3: transaction validation latency ~0.3 ms (verify + vscc rounds).
  workload::SyntheticSpec spec;
  spec.blocks = 5;
  spec.block_size = 50;
  spec.ends_attached = 2;
  spec.policy_text = "2-outof-2 orgs";
  spec.org_count = 2;
  const auto result = workload::run_hw_workload(spec);
  EXPECT_NEAR(result.tx_latency_us, 290.0, 15.0);
}

}  // namespace
}  // namespace bm::bmac
