// ValidatorBackend seam tests: every software backend configuration (any
// parallelism, any StateDb shard count) must produce byte-identical
// validation flags and commit hashes — threads and sharding are throughput
// knobs, never semantics.
#include <gtest/gtest.h>

#include <deque>

#include "common/thread_pool.hpp"
#include "fabric/orderer.hpp"
#include "fabric/statedb.hpp"
#include "fabric/validator.hpp"
#include "fabric/validator_backend.hpp"

namespace bm::fabric {
namespace {

// ---------------------------------------------------------------------------
// Backend swap: all configurations are observably identical.

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
  // One backend per knob setting, each with its own StateDb at a different
  // shard count, fed the same three blocks: flags, commit hashes, valid
  // counts and DB sizes must be identical across the board.
  struct Lane {
    std::unique_ptr<ValidatorBackend> backend;
    StateDb db;
    Ledger ledger;
    Lane(std::unique_ptr<ValidatorBackend> b, std::size_t shards)
        : backend(std::move(b)), db(shards) {}
  };
  std::deque<Lane> lanes;
  lanes.emplace_back(make_software_backend(msp_, policies_), 1);
  lanes.emplace_back(
      make_software_backend(msp_, policies_, {.parallelism = 1}), 3);
  lanes.emplace_back(
      make_software_backend(msp_, policies_, {.parallelism = 4}), 8);
  lanes.emplace_back(
      make_software_backend(msp_, policies_, {.parallelism = 2}), 13);

  for (int b = 0; b < 3; ++b) {
    const Block block = cut(mixed_envelopes(b));
    const auto reference =
        lanes[0].backend->validate_and_commit(block, lanes[0].db,
                                              lanes[0].ledger);
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      const auto result = lanes[i].backend->validate_and_commit(
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
  const auto& ref_stats = lanes[0].backend->stats();
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    EXPECT_EQ(lanes[i].backend->stats().endorsement_signature_checks,
              ref_stats.endorsement_signature_checks);
    EXPECT_EQ(lanes[i].backend->stats().db_writes, ref_stats.db_writes);
  }
}

TEST_F(BackendTest, FactoryProducesIndependentBackends) {
  const auto factory = software_backend_factory({.parallelism = 2});
  auto a = factory(msp_, policies_);
  auto b = factory(msp_, policies_);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const Block block = cut(mixed_envelopes(0));
  StateDb db_a, db_b;
  Ledger ledger_a, ledger_b;
  const auto r_a = a->validate_and_commit(block, db_a, ledger_a);
  const auto r_b = b->validate_and_commit(block, db_b, ledger_b);
  EXPECT_EQ(r_a.flags, r_b.flags);
  EXPECT_EQ(r_a.commit_hash, r_b.commit_hash);
  EXPECT_EQ(a->stats().blocks_processed, 1u);
  EXPECT_EQ(b->stats().blocks_processed, 1u);
}

// ---------------------------------------------------------------------------
// Sharded StateDb: the batched commit is observably identical to puts.

TEST(ShardedStateDb, BatchCommitMatchesIndividualPuts) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}, std::size_t{16}}) {
    StateDb batched(shards);
    StateDb plain(1);
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

    ASSERT_EQ(batched.size(), plain.size()) << shards << " shards";
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
}

TEST(ShardedStateDb, ParallelBatchApplyMatchesSerial) {
  ThreadPool pool(4);
  StateDb serial(8), parallel(8);
  auto fill = [](StateDb& db, ThreadPool* p) {
    StateDb::WriteBatch batch = db.make_batch();
    for (int i = 0; i < 200; ++i)
      batch.add("key" + std::to_string(i),
                to_bytes("value" + std::to_string(i)),
                Version{3, static_cast<std::uint32_t>(i)});
    db.commit_batch(std::move(batch), p);
  };
  fill(serial, nullptr);
  fill(parallel, &pool);

  ASSERT_EQ(parallel.size(), serial.size());
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    const auto got = parallel.get(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(got->value, serial.get(key)->value);
    EXPECT_EQ(got->version, serial.get(key)->version);
  }
}

}  // namespace
}  // namespace bm::fabric
