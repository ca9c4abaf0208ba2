// The paper's §4.1 consistency check, as a test: for every experiment the
// authors compared block validity, per-transaction flags and the commit hash
// between the software-only peer and the BMac peer and found no mismatches.
// Here the same blocks — including fault-injected ones — flow through both
// implementations end to end (real signatures, real packets, real hardware
// pipeline model) and must produce identical results.
#include <gtest/gtest.h>

#include "bmac/peer.hpp"
#include "common/hex.hpp"
#include "crypto/comb_cache.hpp"
#include "fabric/validator.hpp"
#include "workload/network_harness.hpp"

namespace bm::bmac {
namespace {

using workload::ChaincodeKind;
using workload::FabricNetworkHarness;
using workload::NetworkOptions;

struct EquivalenceResult {
  std::vector<fabric::BlockValidationResult> sw_results;
  std::vector<ResultEntry> hw_results;
  crypto::Digest sw_commit_hash{};
  crypto::Digest hw_commit_hash{};
  std::uint64_t sw_db_size = 0;
  std::uint64_t hw_db_size = 0;
  std::uint64_t hw_ecdsa_executed = 0;
  std::uint64_t hw_ecdsa_skipped = 0;
  std::uint64_t sw_ecdsa_executed = 0;
  /// Comb-cache lookups (first sights, builds and hits) during the BMac
  /// peer's share of the run: one per real verification past the range
  /// checks.
  std::uint64_t hw_lookups = 0;
};

std::uint64_t comb_lookups() {
  const auto c = crypto::CombCache::shared().counters();
  return c.first_sights + c.builds + c.hits;
}

EquivalenceResult run_equivalence(NetworkOptions options, int blocks,
                                  HwConfig hw_config = {},
                                  bool tamper_last_block = false) {
  FabricNetworkHarness harness(std::move(options));

  // Software-only validator peer.
  fabric::StateDb sw_db;
  fabric::Ledger sw_ledger;
  fabric::SoftwareValidator sw_validator(harness.msp(), harness.policies());

  // BMac peer: protocol sender (orderer side) + full hardware path.
  sim::Simulation sim;
  BmacPeer peer(sim, harness.msp(), hw_config, harness.policies());
  peer.start();
  ProtocolSender sender(harness.msp());

  EquivalenceResult out;
  for (int i = 0; i < blocks; ++i) {
    const bool tampered = tamper_last_block && i == blocks - 1;
    fabric::Block block =
        tampered ? harness.next_tampered_block() : harness.next_block();

    out.sw_results.push_back(
        sw_validator.validate_and_commit(block, sw_db, sw_ledger));

    const std::uint64_t lookups_before = comb_lookups();
    SendResult send = sender.send(block);
    for (auto& pkt : send.packets) {
      auto decoded = BmacPacket::decode(pkt.encode());
      EXPECT_TRUE(decoded.has_value());
      peer.deliver_packet(std::move(*decoded));
    }
    peer.deliver_block(std::move(block));
    sim.run();
    out.hw_lookups += comb_lookups() - lookups_before;
  }

  out.hw_results = peer.results();
  if (sw_ledger.height() > 0)
    out.sw_commit_hash = sw_ledger.last().commit_hash;
  if (peer.ledger().height() > 0)
    out.hw_commit_hash = peer.ledger().last().commit_hash;
  out.sw_db_size = sw_db.size();
  out.hw_db_size = peer.processor().statedb().size();
  out.hw_ecdsa_executed = peer.processor().monitor().ecdsa_executed;
  out.hw_ecdsa_skipped = peer.processor().monitor().ecdsa_skipped;
  out.sw_ecdsa_executed = sw_validator.stats().total_ecdsa_checks();
  return out;
}

void expect_flags_match(const EquivalenceResult& r) {
  ASSERT_EQ(r.sw_results.size(), r.hw_results.size());
  for (std::size_t b = 0; b < r.sw_results.size(); ++b) {
    EXPECT_EQ(r.sw_results[b].block_valid, r.hw_results[b].block_valid)
        << "block " << b;
    ASSERT_EQ(r.sw_results[b].flags.size(), r.hw_results[b].flags.size());
    for (std::size_t t = 0; t < r.sw_results[b].flags.size(); ++t) {
      EXPECT_EQ(r.sw_results[b].flags[t], r.hw_results[b].flags[t])
          << "block " << b << " tx " << t;
    }
  }
  EXPECT_EQ(r.sw_commit_hash, r.hw_commit_hash);
  EXPECT_EQ(r.sw_db_size, r.hw_db_size);
}

TEST(Equivalence, CleanSmallbankWorkload) {
  NetworkOptions options;
  options.block_size = 8;
  options.seed = 100;
  const auto result = run_equivalence(options, 5);
  expect_flags_match(result);
  // All-clean workload: every tx valid in both.
  for (const auto& block : result.sw_results)
    EXPECT_EQ(block.valid_tx_count, 8u);
}

TEST(Equivalence, SmallbankWithInjectedFaults) {
  NetworkOptions options;
  options.block_size = 10;
  options.seed = 200;
  options.bad_signature_rate = 0.15;
  options.missing_endorsement_rate = 0.2;
  options.conflicting_read_rate = 0.2;
  const auto result = run_equivalence(options, 6);
  expect_flags_match(result);

  // The fault injection actually produced each failure class.
  std::map<fabric::TxValidationCode, int> histogram;
  for (const auto& block : result.sw_results)
    for (const auto flag : block.flags) histogram[flag]++;
  EXPECT_GT(histogram[fabric::TxValidationCode::kValid], 0);
  EXPECT_GT(histogram[fabric::TxValidationCode::kBadCreatorSignature], 0);
  EXPECT_GT(histogram[fabric::TxValidationCode::kEndorsementPolicyFailure], 0);
  EXPECT_GT(histogram[fabric::TxValidationCode::kMvccReadConflict], 0);
}

TEST(Equivalence, CommitShapedFaultyChainPinsTheEngineWork) {
  // perfbench's `commit` chain: 50-tx smallbank blocks under 2-of-2 with
  // the `bmac_sim validate --faults` mix. The peer's real verifications
  // never exceed what its engines execute, and every simulated figure
  // equals the one recorded when each engine request ran its own verify.
  NetworkOptions options;
  options.block_size = 50;
  options.seed = 1;
  options.bad_signature_rate = 0.1;
  options.missing_endorsement_rate = 0.1;
  options.conflicting_read_rate = 0.15;
  const auto result = run_equivalence(options, 3);
  expect_flags_match(result);
  EXPECT_LE(result.hw_lookups, result.hw_ecdsa_executed);
  EXPECT_EQ(result.hw_ecdsa_executed, 406u);
  EXPECT_EQ(result.hw_ecdsa_skipped, 32u);

  std::string figures;
  for (const ResultEntry& block : result.hw_results) {
    const BlockStats& s = block.stats;
    figures += std::to_string(block.block_num) + " " +
               std::to_string(s.received_at) + " " +
               std::to_string(s.verify_start) + " " +
               std::to_string(s.verify_end) + " " +
               std::to_string(s.validate_start) + " " +
               std::to_string(s.validate_end) + " " +
               std::to_string(s.ecdsa_executed) + " " +
               std::to_string(s.ecdsa_skipped) + " " +
               std::to_string(s.tx_latency_sum) + " flags";
    for (const auto flag : block.flags)
      figures += " " + std::to_string(static_cast<int>(flag));
    figures += "\n";
  }
  // Per block: number, BlockStats in declaration order, then the flags.
  EXPECT_EQ(hex_encode(crypto::sha256(to_bytes(figures))),
            "5937508d0ad028ec6955350e2f78f44274993ddb1a3b50ceb39d443309bbbf3f")
      << figures;
}

TEST(Equivalence, DrmWorkload) {
  NetworkOptions options;
  options.chaincode = ChaincodeKind::kDrm;
  options.block_size = 8;
  options.seed = 300;
  options.conflicting_read_rate = 0.15;
  const auto result = run_equivalence(options, 4);
  expect_flags_match(result);
}

TEST(Equivalence, TwoOfThreePolicyShortCircuits) {
  NetworkOptions options;
  options.orgs = 3;
  options.policy_text = "2-outof-3 orgs";
  options.block_size = 6;
  options.seed = 400;
  HwConfig hw;
  hw.engines_per_vscc = 2;
  const auto result = run_equivalence(options, 4, hw);
  expect_flags_match(result);

  // Hardware short-circuit: 3 endorsements attached, only 2 verified;
  // software verifies all 3 (the Fig. 7e contrast).
  EXPECT_GT(result.hw_ecdsa_skipped, 0u);
  EXPECT_LT(result.hw_ecdsa_executed, result.sw_ecdsa_executed);
}

TEST(Equivalence, ComplexPolicyFromPaper) {
  NetworkOptions options;
  options.orgs = 4;
  options.policy_text =
      "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | "
      "(Org3 & Org4)";
  options.block_size = 5;
  options.seed = 500;
  options.missing_endorsement_rate = 0.25;
  const auto result = run_equivalence(options, 4);
  expect_flags_match(result);
}

TEST(Equivalence, TamperedBlockRejectedByBoth) {
  NetworkOptions options;
  options.block_size = 5;
  options.seed = 600;
  const auto result = run_equivalence(options, 3, HwConfig{},
                                      /*tamper_last_block=*/true);
  ASSERT_EQ(result.hw_results.size(), 3u);
  EXPECT_TRUE(result.hw_results[1].block_valid);
  EXPECT_FALSE(result.hw_results[2].block_valid);
  EXPECT_FALSE(result.sw_results[2].block_valid);
  for (std::size_t t = 0; t < result.sw_results[2].flags.size(); ++t)
    EXPECT_EQ(result.hw_results[2].flags[t],
              fabric::TxValidationCode::kNotValidated);
  // Neither peer committed the tampered block; hashes agree on the prefix.
  EXPECT_EQ(result.sw_commit_hash, result.hw_commit_hash);
}

TEST(Equivalence, StrippedFlagsCommitLikeTheWellFormedBlock) {
  // The flags field is outside the orderer's signature, so a delivered
  // block may carry it short or not at all. Both peers rebuild it from
  // their own verdicts and commit the well-formed block's flags and hash.
  // The degraded peer drops every packet of block 1, so its software
  // fallback commits that block.
  NetworkOptions options;
  options.block_size = 6;
  options.seed = 900;
  options.bad_signature_rate = 0.2;
  options.missing_endorsement_rate = 0.2;
  for (const bool degraded : {false, true}) {
    FabricNetworkHarness harness(options);
    fabric::SoftwareValidator sw_validator(harness.msp(), harness.policies());
    fabric::StateDb sw_db;
    fabric::Ledger sw_ledger;
    sim::Simulation sim;
    BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
    if (degraded) {
      DegradeConfig degrade;
      degrade.result_budget = 50 * sim::kMillisecond;
      peer.enable_graceful_degradation(degrade);
    }
    peer.start();
    ProtocolSender sender(harness.msp());
    constexpr int kBlocks = 3;
    for (int i = 0; i < kBlocks; ++i) {
      fabric::Block block = harness.next_block();
      block.metadata.tx_flags.resize(i == 0 ? 0 : 1);
      const auto sw = sw_validator.validate_and_commit(block, sw_db, sw_ledger);
      EXPECT_EQ(sw.flags, harness.reference_result(i).flags) << i;
      if (!degraded || i != 1)
        for (auto& packet : sender.send(block).packets)
          peer.deliver_packet(std::move(packet));
      peer.deliver_block(std::move(block));
    }
    sim.run();

    const fabric::Ledger& reference = harness.reference_ledger();
    ASSERT_EQ(sw_ledger.height(), static_cast<std::uint64_t>(kBlocks));
    ASSERT_EQ(peer.ledger().height(), static_cast<std::uint64_t>(kBlocks));
    ASSERT_EQ(peer.results().size(), static_cast<std::size_t>(kBlocks));
    for (std::uint64_t h = 0; h < kBlocks; ++h) {
      EXPECT_EQ(sw_ledger.at(h).commit_hash, reference.at(h).commit_hash) << h;
      EXPECT_EQ(peer.ledger().at(h).commit_hash, reference.at(h).commit_hash)
          << "degraded " << degraded << ", block " << h;
      EXPECT_EQ(peer.results()[h].flags, harness.reference_result(h).flags);
    }
    if (degraded) {
      EXPECT_EQ(peer.degrade_metrics().fallback_blocks, 1u);
    }
  }
}

TEST(Equivalence, DifferentHardwareConfigsSameVerdicts) {
  // Throughput knobs (V, E) must never change validation outcomes.
  NetworkOptions options;
  options.orgs = 3;
  options.policy_text = "2-outof-3 orgs";
  options.block_size = 7;
  options.seed = 700;
  options.missing_endorsement_rate = 0.2;

  std::vector<std::vector<fabric::TxValidationCode>> flag_sets;
  for (const auto [v, e] : {std::pair{1, 1}, {4, 2}, {5, 3}, {16, 2}}) {
    HwConfig hw;
    hw.tx_validators = v;
    hw.engines_per_vscc = e;
    NetworkOptions opts = options;  // fresh harness, same seed
    const auto result = run_equivalence(opts, 3, hw);
    expect_flags_match(result);
    std::vector<fabric::TxValidationCode> all;
    for (const auto& block : result.hw_results)
      all.insert(all.end(), block.flags.begin(), block.flags.end());
    flag_sets.push_back(std::move(all));
  }
  for (std::size_t i = 1; i < flag_sets.size(); ++i)
    EXPECT_EQ(flag_sets[i], flag_sets[0]);
}

TEST(Equivalence, HardwareStateMatchesSoftwareState) {
  NetworkOptions options;
  options.block_size = 6;
  options.seed = 800;
  options.conflicting_read_rate = 0.1;

  FabricNetworkHarness harness(options);
  fabric::StateDb sw_db;
  fabric::Ledger sw_ledger;
  fabric::SoftwareValidator sw_validator(harness.msp(), harness.policies());

  sim::Simulation sim;
  BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
  peer.start();
  ProtocolSender sender(harness.msp());

  std::vector<fabric::Block> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(harness.next_block());
  for (const auto& block : blocks) {
    sw_validator.validate_and_commit(block, sw_db, sw_ledger);
    for (auto& pkt : sender.send(block).packets) peer.deliver_packet(pkt);
    peer.deliver_block(block);
  }
  sim.run();

  // Every key committed by software exists in the hardware store with the
  // same value and version.
  EXPECT_EQ(sw_db.size(), peer.processor().statedb().size());
  for (const auto& block : blocks) {
    for (const auto& envelope : block.envelopes) {
      const auto tx = fabric::parse_envelope(envelope);
      ASSERT_TRUE(tx.has_value());
      for (const auto& write : tx->rwset.writes) {
        const std::string key =
            fabric::StateDb::namespaced(tx->chaincode_id, write.key);
        const auto sw_value = sw_db.get(key);
        const auto hw_value = peer.processor().statedb().lookup(key);
        ASSERT_EQ(sw_value.has_value(), hw_value.has_value()) << key;
        if (sw_value) {
          EXPECT_TRUE(equal(sw_value->value, hw_value->value)) << key;
          EXPECT_EQ(sw_value->version, hw_value->version) << key;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bm::bmac
