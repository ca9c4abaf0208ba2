#include <gtest/gtest.h>

#include <set>

#include "workload/metrics.hpp"
#include "workload/network_harness.hpp"
#include "workload/synthetic.hpp"

namespace bm::workload {
namespace {

TEST(Metrics, MeanAndPercentiles) {
  const std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(mean(values), 5.5);
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 10);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 5.5);
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 10);
  EXPECT_NEAR(s.p95, 9.55, 0.01);
  EXPECT_TRUE(summarize({}).mean == 0);
}

TEST(Metrics, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);    // empty -> 0, no indexing
  EXPECT_DOUBLE_EQ(percentile({7}, 0), 7);    // single sample is every p
  EXPECT_DOUBLE_EQ(percentile({7}, 100), 7);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, -10), 1);   // p clamped to [0,100]
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 250), 2);
  EXPECT_DOUBLE_EQ(percentile({3, 1}, 50), 2);    // input need not be sorted
}

TEST(Metrics, StddevAndSummaryCount) {
  EXPECT_DOUBLE_EQ(stddev({}), 0);
  EXPECT_DOUBLE_EQ(stddev({5}), 0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
  const Summary s = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.0, 1e-12);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Smallbank, ProducesRealisticRwSets) {
  SmallbankChaincode chaincode({.accounts = 100});
  fabric::StateDb state;
  Rng rng(1);
  int total_reads = 0, total_writes = 0;
  for (int i = 0; i < 300; ++i) {
    const ChaincodeResult result = chaincode.execute(rng, state);
    EXPECT_FALSE(result.op.empty());
    EXPECT_LE(result.rwset.reads.size(), 2u);
    EXPECT_GE(result.rwset.writes.size(), 1u);
    EXPECT_LE(result.rwset.writes.size(), 2u);
    total_reads += static_cast<int>(result.rwset.reads.size());
    total_writes += static_cast<int>(result.rwset.writes.size());
  }
  EXPECT_NEAR(total_reads / 300.0, chaincode.avg_reads(), 0.3);
  EXPECT_NEAR(total_writes / 300.0, chaincode.avg_writes(), 0.3);
}

TEST(Smallbank, ReadsObserveCommittedVersions) {
  SmallbankChaincode chaincode({.accounts = 4});
  fabric::StateDb state;
  state.put(fabric::StateDb::namespaced("smallbank", "savings_1"),
            to_bytes("500"), fabric::Version{7, 3});
  Rng rng(2);
  bool saw_versioned_read = false;
  for (int i = 0; i < 200 && !saw_versioned_read; ++i) {
    const ChaincodeResult result = chaincode.execute(rng, state);
    for (const auto& read : result.rwset.reads)
      if (read.key == "savings_1" && read.version == fabric::Version{7, 3})
        saw_versioned_read = true;
  }
  EXPECT_TRUE(saw_versioned_read);
}

TEST(Smallbank, SplitPaymentScalesDbAccesses) {
  SmallbankChaincode split({.accounts = 100, .split_payment_accounts = 5});
  fabric::StateDb state;
  Rng rng(3);
  const ChaincodeResult result = split.execute(rng, state);
  EXPECT_EQ(result.op, "split_payment");
  EXPECT_EQ(result.rwset.reads.size(), 6u);   // 1 source + 5 destinations
  EXPECT_EQ(result.rwset.writes.size(), 6u);
  EXPECT_DOUBLE_EQ(split.avg_reads(), 6.0);
}

TEST(Drm, FewerDbAccessesThanSmallbank) {
  // Fig. 8: drm has fewer database requests than smallbank.
  DrmChaincode drm({.assets = 100});
  SmallbankChaincode smallbank({.accounts = 100});
  EXPECT_LT(drm.avg_reads() + drm.avg_writes(),
            smallbank.avg_reads() + smallbank.avg_writes());
}

TEST(Drm, OperationsCoverCreateUpdateTransfer) {
  DrmChaincode drm({.assets = 20});
  fabric::StateDb state;
  Rng rng(4);
  std::set<std::string> ops;
  for (int i = 0; i < 100; ++i) ops.insert(drm.execute(rng, state).op);
  EXPECT_EQ(ops.size(), 3u);
}

TEST(NetworkHarness, ProducesValidBlocks) {
  NetworkOptions options;
  options.block_size = 5;
  FabricNetworkHarness harness(options);
  const fabric::Block block = harness.next_block();
  EXPECT_EQ(block.tx_count(), 5u);
  EXPECT_EQ(block.header.number, 0u);
  const auto& reference = harness.reference_result(0);
  EXPECT_TRUE(reference.block_valid);
  EXPECT_EQ(reference.valid_tx_count, 5u);

  const fabric::Block block2 = harness.next_block();
  EXPECT_EQ(block2.header.number, 1u);
}

TEST(NetworkHarness, FaultInjectionProducesInvalidTxs) {
  NetworkOptions options;
  options.block_size = 20;
  options.bad_signature_rate = 0.3;
  options.missing_endorsement_rate = 0.3;
  options.conflicting_read_rate = 0.3;
  options.seed = 9;
  FabricNetworkHarness harness(options);
  harness.next_block();
  const fabric::Block block = harness.next_block();  // conflicts need history
  const auto& reference = harness.reference_result(block.header.number);
  EXPECT_LT(reference.valid_tx_count, 20u);
  EXPECT_GT(reference.valid_tx_count, 0u);
}

TEST(NetworkHarness, DeterministicForSeed) {
  NetworkOptions options;
  options.block_size = 4;
  options.seed = 77;
  FabricNetworkHarness a(options), b(options);
  EXPECT_TRUE(equal(a.next_block().marshal(), b.next_block().marshal()));
}

TEST(NetworkHarness, BatchSignedBlocksMatchOneTxAtATime) {
  // perfbench's commit mix. next_block signs each block's drafts as one
  // batch; its blocks must be those of preparing, signing and submitting
  // one transaction at a time (the rng draws keep their order and the
  // nonces are RFC 6979's).
  NetworkOptions options;
  options.orgs = 2;
  options.block_size = 50;
  options.seed = 1;
  options.bad_signature_rate = 0.1;
  options.missing_endorsement_rate = 0.1;
  options.conflicting_read_rate = 0.15;
  FabricNetworkHarness batched(options), stepwise(options);
  const auto one_at_a_time = [&stepwise] {
    std::optional<fabric::Block> block;
    while (!block)
      block = stepwise.submit_envelope(
          stepwise.sign_envelope(stepwise.prepare_tx()));
    stepwise.commit_block(*block);
    return *block;
  };

  for (int b = 0; b < 3; ++b)
    EXPECT_TRUE(equal(batched.next_block().marshal(),
                      one_at_a_time().marshal()))
        << "block " << b;
  fabric::Block tampered = one_at_a_time();
  tampered.metadata.orderer_sig.back() ^= 0x01;
  EXPECT_TRUE(
      equal(batched.next_tampered_block().marshal(), tampered.marshal()));
  EXPECT_TRUE(
      equal(batched.next_block().marshal(), one_at_a_time().marshal()));
}

// --- Synthetic DES runner: reproduce the paper's headline hardware numbers ---

SyntheticSpec base_spec() {
  SyntheticSpec spec;
  spec.blocks = 30;
  spec.block_size = 150;
  spec.ends_attached = 2;
  spec.policy_text = "2-outof-2 orgs";
  spec.org_count = 4;
  return spec;
}

TEST(HwWorkload, Fig7bThroughputAnchors) {
  // 4 / 8 / 16 tx_validators at block 150: paper reports 25,800 / 49,200 /
  // 86,100 tps. The DES must land within ~10%.
  auto spec = base_spec();
  spec.hw.tx_validators = 4;
  EXPECT_NEAR(run_hw_workload(spec).tps, 25800, 2600);
  spec.hw.tx_validators = 8;
  EXPECT_NEAR(run_hw_workload(spec).tps, 49200, 4900);
  spec.hw.tx_validators = 16;
  EXPECT_NEAR(run_hw_workload(spec).tps, 86100, 8600);
}

TEST(HwWorkload, ScalingEfficiencyNearPaper) {
  // 4 -> 16 validators gave 3.3x in the paper (vs ideal 4x).
  auto spec = base_spec();
  spec.hw.tx_validators = 4;
  const double at4 = run_hw_workload(spec).tps;
  spec.hw.tx_validators = 16;
  const double at16 = run_hw_workload(spec).tps;
  EXPECT_GT(at16 / at4, 3.0);
  EXPECT_LT(at16 / at4, 3.8);
}

TEST(HwWorkload, ShortCircuitDoublesTwoOfThree) {
  // Fig. 7e: 2of3 (49,200) vs 3of3 (25,800) on the 8x2 architecture.
  auto spec = base_spec();
  spec.ends_attached = 3;
  spec.policy_text = "2-outof-3 orgs";
  const auto two_of_three = run_hw_workload(spec);
  spec.policy_text = "3-outof-3 orgs";
  const auto three_of_three = run_hw_workload(spec);
  EXPECT_GT(two_of_three.tps / three_of_three.tps, 1.7);
  EXPECT_GT(two_of_three.ecdsa_skipped, 0u);
  EXPECT_EQ(three_of_three.ecdsa_skipped, 0u);
}

TEST(HwWorkload, ArchitectureAdaptability) {
  // Fig. 7f: 8x2 wins for 2ofN, 5x3 wins for 3ofN.
  auto spec = base_spec();
  spec.ends_attached = 3;

  spec.policy_text = "2-outof-3 orgs";
  spec.hw = {.tx_validators = 8, .engines_per_vscc = 2};
  const double tps_8x2_2of3 = run_hw_workload(spec).tps;
  spec.hw = {.tx_validators = 5, .engines_per_vscc = 3};
  const double tps_5x3_2of3 = run_hw_workload(spec).tps;
  EXPECT_GT(tps_8x2_2of3, tps_5x3_2of3 * 1.3);

  spec.policy_text = "3-outof-3 orgs";
  spec.hw = {.tx_validators = 8, .engines_per_vscc = 2};
  const double tps_8x2_3of3 = run_hw_workload(spec).tps;
  spec.hw = {.tx_validators = 5, .engines_per_vscc = 3};
  const double tps_5x3_3of3 = run_hw_workload(spec).tps;
  EXPECT_GT(tps_5x3_3of3, tps_8x2_3of3 * 1.15);
}

TEST(HwWorkload, DbAccessesHiddenByVsccLatency) {
  // Fig. 7g: hardware throughput flat from 3 to 13 rw per tx.
  auto spec = base_spec();
  spec.reads_per_tx = 1.5;
  spec.writes_per_tx = 1.5;
  const double light = run_hw_workload(spec).tps;
  spec.reads_per_tx = 6.5;
  spec.writes_per_tx = 6.5;
  const double heavy = run_hw_workload(spec).tps;
  EXPECT_NEAR(heavy / light, 1.0, 0.03);
}

TEST(HwWorkload, ThroughputGrowsWithBlockSize) {
  auto spec = base_spec();
  spec.block_size = 50;
  const double small = run_hw_workload(spec).tps;
  spec.block_size = 250;
  const double large = run_hw_workload(spec).tps;
  EXPECT_GT(large, small * 1.15);
  EXPECT_GT(small, 30000);  // paper: minimum 38,000 at 8x2 (we allow margin)
}

TEST(HwWorkload, PeakMatchesPaperHeadline) {
  // 16x2, block 250: the paper's 95,600 tps headline.
  auto spec = base_spec();
  spec.blocks = 40;
  spec.block_size = 250;
  spec.hw.tx_validators = 16;
  const auto result = run_hw_workload(spec);
  EXPECT_NEAR(result.tps, 95600, 9000);
  EXPECT_LT(result.block_latency_ms, 5.0);  // "<5 ms" claim
}

TEST(SwModel, EndorserSlowerThanValidator) {
  const auto result = run_sw_model(base_spec(), 8);
  EXPECT_GT(result.validator_tps, result.endorser_tps * 1.35);
}

TEST(SwModel, ComplexPolicyCollapsesSoftware) {
  // Fig. 7f: the complex policy drops the software peer to ~2,700 tps.
  auto spec = base_spec();
  spec.ends_attached = 4;
  spec.policy_text =
      "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | "
      "(Org3 & Org4)";
  const auto result = run_sw_model(spec, 8);
  EXPECT_NEAR(result.validator_tps, 2700, 300);
}

TEST(HwVsSw, SpeedupAtLeastTenfold) {
  // Fig. 7a: the BMac peer always delivered >= 10x the software validator.
  auto spec = base_spec();
  for (int size : {50, 150, 250}) {
    spec.block_size = size;
    const double hw = run_hw_workload(spec).tps;
    const double sw = run_sw_model(spec, 8).validator_tps;
    EXPECT_GE(hw / sw, 10.0) << "block size " << size;
  }
}

}  // namespace
}  // namespace bm::workload
