// Software validator configurations: every SoftwareValidator setting (any
// parallelism) must produce byte-identical validation flags and commit
// hashes — threads are a throughput knob, never semantics.
#include <gtest/gtest.h>

#include <deque>

#include "fabric/orderer.hpp"
#include "fabric/statedb.hpp"
#include "fabric/validator.hpp"

namespace bm::fabric {
namespace {

// ---------------------------------------------------------------------------
// Configuration swap: all settings are observably identical.

class BackendTest : public ::testing::Test {
 protected:
  BackendTest() {
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
  }

  Bytes make_tx(const std::string& id,
                const std::vector<const Identity*>& endorsers,
                ReadWriteSet rwset = {}) {
    TxProposal proposal;
    proposal.channel_id = "ch";
    proposal.chaincode_id = "smallbank";
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

  /// A block exercising every validation outcome.
  std::vector<Bytes> mixed_envelopes(int block) {
    const std::string tag = std::to_string(block);
    std::vector<Bytes> envs;
    for (int i = 0; i < 6; ++i)
      envs.push_back(
          make_tx("ok" + tag + "_" + std::to_string(i), {&peer1_, &peer2_}));
    envs.push_back(make_tx("short" + tag, {&peer1_}));  // policy failure
    envs.push_back(to_bytes("garbage " + tag));         // bad payload
    Bytes bad = make_tx("sig" + tag, {&peer1_, &peer2_});
    bad.back() ^= 1;  // bad creator signature
    envs.push_back(std::move(bad));
    ReadWriteSet rw;
    rw.reads.push_back({"shared" + tag, std::nullopt});
    rw.writes.push_back({"shared" + tag, to_bytes("x")});
    envs.push_back(make_tx("m1" + tag, {&peer1_, &peer2_}, rw));  // valid
    envs.push_back(make_tx("m2" + tag, {&peer1_, &peer2_}, rw));  // conflict
    return envs;
  }

  Msp msp_;
  CertificateAuthority* org1_;
  CertificateAuthority* org2_;
  Identity client_, peer1_, peer2_;
  std::unique_ptr<Orderer> orderer_;
  std::map<std::string, EndorsementPolicy> policies_;
};

TEST_F(BackendTest, AllBackendConfigurationsProduceIdenticalResults) {
  // One validator per knob setting, each with its own StateDb, fed the same
  // three blocks: flags, commit hashes, valid counts and DB sizes must be
  // identical across the board.
  struct Lane {
    SoftwareValidator validator;
    StateDb db;
    Ledger ledger;
    explicit Lane(SoftwareValidator v) : validator(std::move(v)) {}
  };
  std::deque<Lane> lanes;
  lanes.emplace_back(SoftwareValidator(msp_, policies_));
  lanes.emplace_back(SoftwareValidator(msp_, policies_, 1));
  lanes.emplace_back(SoftwareValidator(msp_, policies_, 4));
  lanes.emplace_back(SoftwareValidator(msp_, policies_, 2));

  for (int b = 0; b < 3; ++b) {
    const Block block = cut(mixed_envelopes(b));
    const auto reference =
        lanes[0].validator.validate_and_commit(block, lanes[0].db,
                                               lanes[0].ledger);
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      const auto result = lanes[i].validator.validate_and_commit(
          block, lanes[i].db, lanes[i].ledger);
      ASSERT_EQ(result.flags, reference.flags) << "lane " << i << " block " << b;
      ASSERT_EQ(result.commit_hash, reference.commit_hash)
          << "lane " << i << " block " << b;
      EXPECT_EQ(result.valid_tx_count, reference.valid_tx_count);
      EXPECT_EQ(result.block_valid, reference.block_valid);
      EXPECT_EQ(lanes[i].db.size(), lanes[0].db.size());
    }
  }
  for (const auto& lane : lanes) EXPECT_EQ(lane.ledger.height(), 3u);

  // Stats that feed the timing model must not depend on the configuration.
  const auto& ref_stats = lanes[0].validator.stats();
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    EXPECT_EQ(lanes[i].validator.stats().endorsement_signature_checks,
              ref_stats.endorsement_signature_checks);
    EXPECT_EQ(lanes[i].validator.stats().db_writes, ref_stats.db_writes);
  }
}

// ---------------------------------------------------------------------------
// StateDb: the batched commit is observably identical to puts.

TEST(StateDb, BatchCommitMatchesIndividualPuts) {
  StateDb batched;
  StateDb plain;
  StateDb::WriteBatch batch = batched.make_batch();
  for (int i = 0; i < 40; ++i) {
    const std::string key =
        StateDb::namespaced("smallbank", "key" + std::to_string(i % 13));
    const Bytes value = to_bytes("v" + std::to_string(i));
    const Version version{1, static_cast<std::uint32_t>(i)};
    batch.add(std::string(key), value, version);
    plain.put(key, value, version);
  }
  batched.commit_batch(std::move(batch));

  ASSERT_EQ(batched.size(), plain.size());
  for (int i = 0; i < 13; ++i) {
    const std::string key =
        StateDb::namespaced("smallbank", "key" + std::to_string(i));
    const auto got = batched.get(key);
    const auto want = plain.get(key);
    ASSERT_TRUE(got.has_value()) << key;
    ASSERT_TRUE(want.has_value()) << key;
    EXPECT_EQ(got->value, want->value) << key;
    EXPECT_EQ(got->version, want->version)
        << key << ": later write in the batch must win";
  }
}

}  // namespace
}  // namespace bm::fabric
