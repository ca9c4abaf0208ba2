#include <gtest/gtest.h>

#include <algorithm>

#include "common/hex.hpp"

#include "crypto/der.hpp"
#include "fabric/orderer.hpp"
#include "fabric/timing_model.hpp"
#include "fabric/validator.hpp"
#include "wire/proto.hpp"

namespace bm::fabric {
namespace {

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest() {
    org1_ = &msp_.add_org("Org1");
    org2_ = &msp_.add_org("Org2");
    client_ = org1_->issue(Role::kClient, 0, "client0.org1");
    peer1_ = org1_->issue(Role::kPeer, 0, "peer0.org1");
    peer2_ = org2_->issue(Role::kPeer, 0, "peer0.org2");
    orderer_ = std::make_unique<Orderer>(
        org1_->issue(Role::kOrderer, 0, "orderer0.org1"),
        Orderer::Config{.max_tx_per_block = 100});
    policies_.emplace("smallbank",
                      parse_policy_or_throw("Org1 & Org2", msp_.org_names()));
    validator_ = std::make_unique<SoftwareValidator>(msp_, policies_);
  }

  Bytes make_tx(const std::string& id,
                const std::vector<const Identity*>& endorsers,
                ReadWriteSet rwset = {}, const std::string& chaincode = "smallbank") {
    TxProposal proposal;
    proposal.channel_id = "ch";
    proposal.chaincode_id = chaincode;
    proposal.tx_id = id;
    if (rwset.reads.empty() && rwset.writes.empty())
      rwset.writes.push_back({"k_" + id, to_bytes("v")});
    proposal.rwset = std::move(rwset);
    return build_envelope(proposal, client_, endorsers);
  }

  Block cut(std::vector<Bytes> envelopes) {
    for (auto& env : envelopes) orderer_->submit(std::move(env));
    return *orderer_->flush();
  }

  Msp msp_;
  CertificateAuthority* org1_;
  CertificateAuthority* org2_;
  Identity client_, peer1_, peer2_;
  std::unique_ptr<Orderer> orderer_;
  std::map<std::string, EndorsementPolicy> policies_;
  std::unique_ptr<SoftwareValidator> validator_;
  StateDb db_;
  Ledger ledger_;
  HistoryDb history_;
};

TEST_F(ValidatorTest, ValidBlockCommits) {
  const Block block = cut({make_tx("a", {&peer1_, &peer2_}),
                           make_tx("b", {&peer1_, &peer2_})});
  const auto result = validator_->validate_and_commit(block, db_, ledger_, &history_);
  EXPECT_TRUE(result.block_valid);
  EXPECT_EQ(result.valid_tx_count, 2u);
  for (const auto flag : result.flags)
    EXPECT_EQ(flag, TxValidationCode::kValid);
  EXPECT_EQ(db_.size(), 2u);
  EXPECT_EQ(ledger_.height(), 1u);
  ASSERT_NE(history_.history(StateDb::namespaced("smallbank", "k_a")), nullptr);
}

TEST_F(ValidatorTest, TamperedOrdererSignatureRejectsBlock) {
  Block block = cut({make_tx("a", {&peer1_, &peer2_})});
  block.metadata.orderer_sig.back() ^= 1;
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_FALSE(result.block_valid);
  EXPECT_EQ(result.flags[0], TxValidationCode::kNotValidated);
  EXPECT_EQ(ledger_.height(), 0u);
  EXPECT_EQ(db_.size(), 0u);
}

TEST_F(ValidatorTest, DeliveredFlagsOfAnyLengthAreRebuilt) {
  // The flags field is outside the orderer's signature, so a delivered
  // block may carry it short, missing or overlong. The committer rebuilds
  // it from its own verdicts: same flags and commit hash as the block as
  // cut.
  const Block block = cut({make_tx("a", {&peer1_, &peer2_}),
                           make_tx("b", {&peer1_}),  // policy failure
                           make_tx("c", {&peer1_, &peer2_})});
  SoftwareValidator reference(msp_, policies_);
  StateDb reference_db;
  Ledger reference_ledger;
  const auto expected =
      reference.validate_and_commit(block, reference_db, reference_ledger);
  ASSERT_TRUE(expected.block_valid);

  for (const std::size_t delivered : {0, 1, 2, 7}) {
    Block damaged = block;
    damaged.metadata.tx_flags.resize(delivered, 0);
    StateDb db;
    Ledger ledger;
    const auto result = validator_->validate_and_commit(damaged, db, ledger);
    EXPECT_TRUE(result.block_valid) << delivered;
    EXPECT_EQ(result.flags, expected.flags) << delivered;
    EXPECT_EQ(result.commit_hash, expected.commit_hash) << delivered;
    EXPECT_EQ(ledger.last().block.metadata.tx_flags,
              reference_ledger.last().block.metadata.tx_flags);
  }
}

TEST_F(ValidatorTest, TamperedDataHashRejectsBlock) {
  Block block = cut({make_tx("a", {&peer1_, &peer2_})});
  block.envelopes[0][5] ^= 1;  // data no longer matches data_hash
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_FALSE(result.block_valid);
}

TEST_F(ValidatorTest, NonOrdererSignerRejected) {
  Block block = cut({make_tx("a", {&peer1_, &peer2_})});
  // Re-sign with a peer identity: valid signature, wrong role.
  block.metadata.orderer_cert = peer1_.cert.marshal();
  block.metadata.orderer_sig =
      crypto::der_encode_signature(peer1_.sign(block.signing_digest()));
  EXPECT_FALSE(validator_->validate_and_commit(block, db_, ledger_).block_valid);
}

TEST_F(ValidatorTest, BadCreatorSignature) {
  Bytes envelope = make_tx("a", {&peer1_, &peer2_});
  // The creator signature is the last field of the envelope.
  envelope[envelope.size() - 1] ^= 1;
  const Block block = cut({std::move(envelope), make_tx("b", {&peer1_, &peer2_})});
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_TRUE(result.block_valid);
  EXPECT_EQ(result.flags[0], TxValidationCode::kBadCreatorSignature);
  EXPECT_EQ(result.flags[1], TxValidationCode::kValid);
}

TEST_F(ValidatorTest, RogueClientKeyRejected) {
  Identity rogue = org1_->issue(Role::kClient, 1, "client1.org1");
  rogue.key = crypto::key_from_seed(to_bytes("not the cert key"));
  TxProposal proposal;
  proposal.channel_id = "ch";
  proposal.chaincode_id = "smallbank";
  proposal.tx_id = "rogue";
  proposal.rwset.writes.push_back({"k", to_bytes("v")});
  const Block block =
      cut({build_envelope(proposal, rogue, {&peer1_, &peer2_})});
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kBadCreatorSignature);
}

TEST_F(ValidatorTest, EndorsementPolicyFailure) {
  const Block block = cut({make_tx("only-org1", {&peer1_}),
                           make_tx("ok", {&peer1_, &peer2_}),
                           make_tx("none", {})});
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kEndorsementPolicyFailure);
  EXPECT_EQ(result.flags[1], TxValidationCode::kValid);
  EXPECT_EQ(result.flags[2], TxValidationCode::kEndorsementPolicyFailure);
}

TEST_F(ValidatorTest, WrongRoleEndorsementFailsPolicy) {
  // An endorsement from a client identity does not satisfy a peer principal.
  Identity client2 = org2_->issue(Role::kClient, 0, "client0.org2");
  const Block block = cut({make_tx("a", {&peer1_, &client2})});
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kEndorsementPolicyFailure);
}

TEST_F(ValidatorTest, UnknownChaincodeIsInvalid) {
  const Block block =
      cut({make_tx("a", {&peer1_, &peer2_}, {}, "unregistered_cc")});
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kInvalidEndorserTransaction);
}

TEST_F(ValidatorTest, MvccStaleReadConflict) {
  // Block 0 writes k; block 1 reads it with a stale (absent) version.
  const Block b0 = cut({make_tx("w", {&peer1_, &peer2_})});
  validator_->validate_and_commit(b0, db_, ledger_);

  ReadWriteSet stale;
  stale.reads.push_back({"k_w", std::nullopt});  // expected absent, now exists
  stale.writes.push_back({"k_w", to_bytes("v2")});
  const Block b1 = cut({make_tx("r", {&peer1_, &peer2_}, stale)});
  const auto result = validator_->validate_and_commit(b1, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kMvccReadConflict);
  // Conflicting write not applied.
  EXPECT_EQ(to_string(db_.get(StateDb::namespaced("smallbank", "k_w"))->value),
            "v");
}

TEST_F(ValidatorTest, MvccIntraBlockConflict) {
  // Two transactions in one block read-then-write the same key: the first
  // wins, the second conflicts.
  ReadWriteSet rw;
  rw.reads.push_back({"shared", std::nullopt});
  rw.writes.push_back({"shared", to_bytes("x")});
  const Block block = cut({make_tx("t1", {&peer1_, &peer2_}, rw),
                           make_tx("t2", {&peer1_, &peer2_}, rw)});
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kValid);
  EXPECT_EQ(result.flags[1], TxValidationCode::kMvccReadConflict);
}

TEST_F(ValidatorTest, MvccCorrectVersionRead) {
  const Block b0 = cut({make_tx("w", {&peer1_, &peer2_})});
  validator_->validate_and_commit(b0, db_, ledger_);

  ReadWriteSet fresh;
  fresh.reads.push_back({"k_w", Version{0, 0}});  // written by block 0, tx 0
  fresh.writes.push_back({"k_w", to_bytes("v2")});
  const Block b1 = cut({make_tx("r", {&peer1_, &peer2_}, fresh)});
  const auto result = validator_->validate_and_commit(b1, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kValid);
  EXPECT_EQ(db_.get(StateDb::namespaced("smallbank", "k_w"))->version,
            (Version{1, 0}));
}

TEST_F(ValidatorTest, GarbageEnvelopeIsBadPayload) {
  std::vector<Bytes> envs;
  envs.push_back(to_bytes("complete garbage, not an envelope"));
  envs.push_back(make_tx("ok", {&peer1_, &peer2_}));
  const Block block = cut(std::move(envs));
  const auto result = validator_->validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(result.flags[0], TxValidationCode::kBadPayload);
  EXPECT_EQ(result.flags[1], TxValidationCode::kValid);
}

TEST_F(ValidatorTest, VerifiesAllEndorsementsRegardlessOfPolicy) {
  // Fabric quirk (§4.3): with a 1-of-2 policy and 2 endorsements attached,
  // the software validator still verifies both signatures.
  std::map<std::string, EndorsementPolicy> policies;
  policies.emplace("smallbank",
                   parse_policy_or_throw("1-outof-2 orgs", msp_.org_names()));
  SoftwareValidator validator(msp_, policies);
  const Block block = cut({make_tx("a", {&peer1_, &peer2_})});
  validator.validate_and_commit(block, db_, ledger_);
  EXPECT_EQ(validator.stats().endorsement_signature_checks, 2u);
}

TEST_F(ValidatorTest, StatsAreCounted) {
  const Block block = cut({make_tx("a", {&peer1_, &peer2_}),
                           make_tx("b", {&peer1_, &peer2_})});
  validator_->validate_and_commit(block, db_, ledger_);
  const auto& stats = validator_->stats();
  EXPECT_EQ(stats.blocks_processed, 1u);
  EXPECT_EQ(stats.block_signature_checks, 1u);
  EXPECT_EQ(stats.creator_signature_checks, 2u);
  EXPECT_EQ(stats.endorsement_signature_checks, 4u);
  EXPECT_EQ(stats.envelopes_parsed, 2u);
  EXPECT_EQ(stats.db_writes, 2u);
  validator_->reset_stats();
  EXPECT_EQ(validator_->stats().blocks_processed, 0u);
}

TEST_F(ValidatorTest, ParallelVsccMatchesSequential) {
  // Same block, one sequential and one 4-thread validator over fresh state:
  // every observable output must be byte-identical (the parallel path only
  // changes wall-clock time, never results — the DES timing model consumes
  // the stats, so this also pins simulated timing).
  std::vector<Bytes> envs;
  for (int i = 0; i < 8; ++i)
    envs.push_back(make_tx("ok" + std::to_string(i), {&peer1_, &peer2_}));
  envs.push_back(make_tx("short", {&peer1_}));           // policy failure
  envs.push_back(make_tx("none", {}));                   // policy failure
  envs.push_back(make_tx("cc", {&peer1_, &peer2_}, {}, "nope"));  // unknown cc
  envs.push_back(to_bytes("garbage envelope"));          // bad payload
  Bytes bad_sig = make_tx("sig", {&peer1_, &peer2_});
  bad_sig.back() ^= 1;                                   // bad creator sig
  envs.push_back(std::move(bad_sig));
  ReadWriteSet rw;
  rw.reads.push_back({"shared", std::nullopt});
  rw.writes.push_back({"shared", to_bytes("x")});
  envs.push_back(make_tx("m1", {&peer1_, &peer2_}, rw));  // valid
  envs.push_back(make_tx("m2", {&peer1_, &peer2_}, rw));  // mvcc conflict
  const Block block = cut(std::move(envs));

  SoftwareValidator seq(msp_, policies_, 1);
  SoftwareValidator par(msp_, policies_, 4);
  ASSERT_EQ(par.parallelism(), 4u);
  StateDb db_seq, db_par;
  Ledger ledger_seq, ledger_par;
  const auto r_seq = seq.validate_and_commit(block, db_seq, ledger_seq);
  const auto r_par = par.validate_and_commit(block, db_par, ledger_par);

  EXPECT_EQ(r_par.block_valid, r_seq.block_valid);
  ASSERT_EQ(r_par.flags, r_seq.flags);
  EXPECT_EQ(r_par.valid_tx_count, r_seq.valid_tx_count);
  EXPECT_EQ(r_par.commit_hash, r_seq.commit_hash);
  EXPECT_EQ(db_par.size(), db_seq.size());
  EXPECT_EQ(ledger_par.height(), ledger_seq.height());
  EXPECT_EQ(par.stats().creator_signature_checks,
            seq.stats().creator_signature_checks);
  EXPECT_EQ(par.stats().endorsement_signature_checks,
            seq.stats().endorsement_signature_checks);
  EXPECT_EQ(par.stats().envelopes_parsed, seq.stats().envelopes_parsed);
  EXPECT_EQ(par.stats().db_reads, seq.stats().db_reads);
  EXPECT_EQ(par.stats().db_writes, seq.stats().db_writes);
}

TEST_F(ValidatorTest, ParallelVsccAcrossBlocks) {
  // Multi-block run: the parallel validator's ledger hash chain must match a
  // sequential validator commit-for-commit.
  SoftwareValidator seq(msp_, policies_, 1);
  SoftwareValidator par(msp_, policies_, 3);
  StateDb db_seq, db_par;
  Ledger ledger_seq, ledger_par;
  for (int b = 0; b < 4; ++b) {
    std::vector<Bytes> envs;
    for (int i = 0; i < 6; ++i) {
      ReadWriteSet rw;
      const std::string key = "k" + std::to_string(i % 3);
      rw.reads.push_back(
          {key, b == 0 ? std::optional<Version>{} : std::optional<Version>{}});
      rw.writes.push_back({key, to_bytes("b" + std::to_string(b))});
      envs.push_back(make_tx("t" + std::to_string(b) + "_" + std::to_string(i),
                             {&peer1_, &peer2_}, rw));
    }
    const Block block = cut(std::move(envs));
    const auto r_seq = seq.validate_and_commit(block, db_seq, ledger_seq);
    const auto r_par = par.validate_and_commit(block, db_par, ledger_par);
    ASSERT_EQ(r_par.flags, r_seq.flags) << "block " << b;
    ASSERT_EQ(r_par.commit_hash, r_seq.commit_hash) << "block " << b;
  }
  EXPECT_EQ(ledger_par.height(), ledger_seq.height());
}

TEST_F(ValidatorTest, MixedBlockFlagsAndStatsArePinnedAtOneAndFourThreads) {
  // One 48-tx block mixing every step-2 outcome, with enough creators and
  // endorsements for crypto::verify's lockstep batches: rogue creator keys,
  // flipped creator signatures, malformed creator and endorsement DER,
  // missing and wrong-role endorsements, an unknown chaincode, garbage and
  // an mvcc conflict. Flags, stats and the commit hash are pinned; they
  // were recorded from the one-verify-at-a-time validator.
  Identity rogue = org1_->issue(Role::kClient, 1, "client1.org1");
  rogue.key = crypto::key_from_seed(to_bytes("not the cert key"));
  const Identity client2 = org2_->issue(Role::kClient, 0, "client0.org2");
  // The DER signature starting at `at` gets a SET tag, which no decoder
  // accepts; the client re-signs the payload when the change is inside it.
  const auto malformed = [&](Bytes envelope, bool endorsement) {
    const auto tx = parse_envelope(envelope);
    if (!endorsement) {
      envelope[envelope.size() - tx->signature.size()] = 0x31;
      return envelope;
    }
    Bytes payload = tx->payload_bytes;
    const Bytes& der = tx->endorsements.back().signature;
    *std::search(payload.begin(), payload.end(), der.begin(), der.end()) = 0x31;
    wire::ProtoWriter out;
    out.bytes_field(txfield::kPayload, payload);
    out.bytes_field(txfield::kSignature,
                    crypto::der_encode_signature(
                        client_.sign(crypto::sha256(payload))));
    return out.take();
  };
  std::vector<Bytes> envs;
  for (int i = 0; i < 48; ++i) {
    const std::string id = "mix" + std::to_string(i);
    TxProposal proposal;
    proposal.channel_id = "ch";
    proposal.chaincode_id = "smallbank";
    proposal.tx_id = id;
    proposal.rwset.writes.push_back({"k_" + id, to_bytes("v")});
    ReadWriteSet shared;
    shared.reads.push_back({"shared", std::nullopt});
    shared.writes.push_back({"shared", to_bytes(id)});
    const std::vector<const Identity*> both = {&peer1_, &peer2_};
    Bytes env;
    switch (i % 12) {
      case 0: env = build_envelope(proposal, rogue, both); break;
      case 1: env = make_tx(id, {&peer1_}); break;  // missing endorsement
      case 2: env = make_tx(id, {}); break;
      case 3: env = make_tx(id, both, {}, "unregistered_cc"); break;
      case 4: env = malformed(make_tx(id, both), false); break;
      case 5: env = malformed(make_tx(id, both), true); break;
      case 6:
        env = make_tx(id, both);
        env.back() ^= 1;  // a bad creator signature in well-formed DER
        break;
      case 7: env = make_tx(id, {&peer1_, &client2}); break;  // wrong role
      case 8: env = make_tx(id, both, shared); break;  // mvcc after the first
      case 9: env = to_bytes("garbage " + id); break;
      default: env = make_tx(id, {&peer2_, &peer1_}); break;
    }
    envs.push_back(std::move(env));
  }
  const Block block = cut(std::move(envs));
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    SoftwareValidator validator(msp_, policies_, threads);
    StateDb db;
    Ledger ledger;
    const auto result = validator.validate_and_commit(block, db, ledger);
    std::string flags;
    for (const TxValidationCode flag : result.flags)
      flags += std::to_string(static_cast<int>(flag)) + " ";
    EXPECT_EQ(flags,
              "4 10 10 5 4 10 4 10 0 1 0 0 4 10 10 5 4 10 4 10 11 1 0 0 "
              "4 10 10 5 4 10 4 10 11 1 0 0 4 10 10 5 4 10 4 10 11 1 0 0 ");
    EXPECT_EQ(result.valid_tx_count, 9u);
    const ValidationStats& stats = validator.stats();
    EXPECT_EQ(stats.blocks_processed, 1u);
    EXPECT_EQ(stats.block_signature_checks, 1u);
    EXPECT_EQ(stats.creator_signature_checks, 40u);
    EXPECT_EQ(stats.endorsement_signature_checks, 40u);
    EXPECT_EQ(stats.envelopes_parsed, 48u);
    EXPECT_EQ(stats.db_reads, 4u);
    EXPECT_EQ(stats.db_writes, 9u);
    EXPECT_EQ(hex_encode(crypto::digest_view(result.commit_hash)),
              "8fbc83907158c375feeaea78f1657bf9485812fecdf53ee83b036ba7ee1211d5");
  }
}

TEST(SwTimingModel, MatchesPaperAnchors) {
  // The calibrated model must land on the paper's reported software numbers
  // (Fig. 7b: 3,500 / 5,300 tps at 4 / 16 vCPUs; §4.3 vscc latencies).
  const SwTimingModel model;
  const SwBlockWorkload at4{150, 2, 2, 2, 2, 4};
  const SwBlockWorkload at16{150, 2, 2, 2, 2, 16};
  EXPECT_NEAR(model.throughput_tps(at4), 3500, 150);
  EXPECT_NEAR(model.throughput_tps(at16), 5300, 200);

  // Endorser at least 35% slower than the validator (Fig. 7a).
  const double endorser =
      150.0 / (static_cast<double>(model.endorser_block_latency(at4)) / 1e9);
  EXPECT_GE(model.throughput_tps(at4) / endorser, 1.35);

  // Throughput grows with block size (Fig. 7a amortization).
  SwBlockWorkload small = at4;
  small.n_tx = 50;
  SwBlockWorkload large = at4;
  large.n_tx = 250;
  EXPECT_LT(model.throughput_tps(small), model.throughput_tps(large));
}

}  // namespace
}  // namespace bm::fabric
