// Parallel commit: validate_and_commit with a worker pool (parallel vscc,
// then MVCC and the batched commit walked in block order) must be
// byte-identical to the sequential oracle on every workload shape —
// conflict-free, conflict-heavy, Zipf-skewed hot keys and mixed validity.
// Runs under the `threads` label so the CI TSan job races the workers.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "fabric/orderer.hpp"
#include "fabric/statedb.hpp"
#include "fabric/validator.hpp"

namespace bm::fabric {
namespace {

// ---------------------------------------------------------------------------
// Differential: the threaded pipeline vs the sequential oracle, end to end.

class ParallelCommitTest : public ::testing::Test {
 protected:
  ParallelCommitTest() {
    auto& org1 = msp_.add_org("Org1");
    auto& org2 = msp_.add_org("Org2");
    client_ = org1.issue(Role::kClient, 0, "client0.org1");
    peer1_ = org1.issue(Role::kPeer, 0, "peer0.org1");
    peer2_ = org2.issue(Role::kPeer, 0, "peer0.org2");
    orderer_ = std::make_unique<Orderer>(
        org1.issue(Role::kOrderer, 0, "orderer0.org1"),
        Orderer::Config{.max_tx_per_block = 200});
    policies_.emplace("smallbank",
                      parse_policy_or_throw("Org1 & Org2", msp_.org_names()));
  }

  Bytes make_tx(const std::string& id, ReadWriteSet rwset) {
    TxProposal proposal;
    proposal.channel_id = "ch";
    proposal.chaincode_id = "smallbank";
    proposal.tx_id = id;
    proposal.rwset = std::move(rwset);
    return build_envelope(proposal, client_, {&peer1_, &peer2_});
  }

  Block cut(std::vector<Bytes> envelopes) {
    for (auto& env : envelopes) orderer_->submit(std::move(env));
    return *orderer_->flush();
  }

  /// Run `blocks` through a sequential oracle lane and parallel lanes at
  /// 2 and 4 worker threads; everything observable must match.
  void expect_equivalent(const std::vector<Block>& blocks) {
    struct Lane {
      SoftwareValidator validator;
      StateDb db;
      Ledger ledger;
      explicit Lane(SoftwareValidator v) : validator(std::move(v)) {}
    };
    std::deque<Lane> lanes;
    lanes.emplace_back(SoftwareValidator(msp_, policies_, 1));
    lanes.emplace_back(SoftwareValidator(msp_, policies_, 2));
    lanes.emplace_back(SoftwareValidator(msp_, policies_, 4));

    for (const Block& block : blocks) {
      const auto reference = lanes[0].validator.validate_and_commit(
          block, lanes[0].db, lanes[0].ledger);
      for (std::size_t i = 1; i < lanes.size(); ++i) {
        const auto result = lanes[i].validator.validate_and_commit(
            block, lanes[i].db, lanes[i].ledger);
        ASSERT_EQ(result.flags, reference.flags) << "lane " << i;
        ASSERT_EQ(result.commit_hash, reference.commit_hash) << "lane " << i;
        EXPECT_EQ(result.valid_tx_count, reference.valid_tx_count);
        EXPECT_EQ(lanes[i].db.size(), lanes[0].db.size());
      }
    }
    // Reads/writes are part of the oracle: the threaded lanes must probe
    // the DB exactly as often as the sequential one.
    const auto& seq = lanes[0].validator.stats();
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      const auto& par = lanes[i].validator.stats();
      EXPECT_EQ(par.db_reads, seq.db_reads) << "lane " << i;
      EXPECT_EQ(par.db_writes, seq.db_writes) << "lane " << i;
    }
  }

  Msp msp_;
  Identity client_, peer1_, peer2_;
  std::unique_ptr<Orderer> orderer_;
  std::map<std::string, EndorsementPolicy> policies_;
};

TEST_F(ParallelCommitTest, ConflictFreeBlocks) {
  std::vector<Block> blocks;
  for (int b = 0; b < 3; ++b) {
    std::vector<Bytes> envs;
    for (int i = 0; i < 24; ++i) {
      ReadWriteSet rw;
      rw.writes.push_back(
          {"b" + std::to_string(b) + "_k" + std::to_string(i), to_bytes("v")});
      envs.push_back(make_tx("t" + std::to_string(b * 100 + i), std::move(rw)));
    }
    blocks.push_back(cut(std::move(envs)));
  }
  expect_equivalent(blocks);
}

TEST_F(ParallelCommitTest, ConflictHeavyBlocks) {
  // Everyone reads and writes the same handful of keys: every intra-block
  // read-after-write is an MVCC conflict the threaded lanes must flag in
  // exactly the same positions.
  std::vector<Block> blocks;
  for (int b = 0; b < 3; ++b) {
    std::vector<Bytes> envs;
    for (int i = 0; i < 24; ++i) {
      ReadWriteSet rw;
      const std::string hot = "hot" + std::to_string(i % 3);
      rw.reads.push_back({hot, std::nullopt});
      rw.writes.push_back({hot, to_bytes("v" + std::to_string(i))});
      envs.push_back(make_tx("c" + std::to_string(b * 100 + i), std::move(rw)));
    }
    blocks.push_back(cut(std::move(envs)));
  }
  expect_equivalent(blocks);
}

TEST_F(ParallelCommitTest, ZipfSkewedWorkload) {
  // Zipf-ish key choice: key j is picked with weight 1/(j+1). Mixed reads
  // and writes with realistic version references against committed state.
  Rng rng(42);
  const int keys = 32;
  std::vector<double> cdf(keys);
  double total = 0;
  for (int j = 0; j < keys; ++j) {
    total += 1.0 / (j + 1);
    cdf[j] = total;
  }
  auto pick = [&] {
    const double r =
        static_cast<double>(rng.next_u64() % 1000000) / 1000000.0 * total;
    for (int j = 0; j < keys; ++j)
      if (r <= cdf[j]) return j;
    return keys - 1;
  };

  std::vector<Block> blocks;
  for (int b = 0; b < 4; ++b) {
    std::vector<Bytes> envs;
    for (int i = 0; i < 30; ++i) {
      ReadWriteSet rw;
      rw.reads.push_back({"z" + std::to_string(pick()), std::nullopt});
      rw.writes.push_back({"z" + std::to_string(pick()),
                           to_bytes("v" + std::to_string(i))});
      if (i % 3 == 0)
        rw.writes.push_back({"z" + std::to_string(pick()), to_bytes("w")});
      envs.push_back(make_tx("z" + std::to_string(b * 100 + i), std::move(rw)));
    }
    blocks.push_back(cut(std::move(envs)));
  }
  expect_equivalent(blocks);
}

TEST_F(ParallelCommitTest, MixedValidityBlocks) {
  // Invalid envelopes interleaved with dependent valid ones: MVCC must skip
  // them and the flags must still line up position by position.
  std::vector<Bytes> envs;
  for (int i = 0; i < 10; ++i) {
    ReadWriteSet rw;
    rw.reads.push_back({"m" + std::to_string(i % 2), std::nullopt});
    rw.writes.push_back({"m" + std::to_string((i + 1) % 2), to_bytes("x")});
    envs.push_back(make_tx("v" + std::to_string(i), std::move(rw)));
    if (i % 3 == 0) envs.push_back(to_bytes("garbage " + std::to_string(i)));
  }
  Bytes bad = make_tx("sig", {});
  bad.back() ^= 1;
  envs.push_back(std::move(bad));
  expect_equivalent({cut(std::move(envs))});
}

}  // namespace
}  // namespace bm::fabric
