#include <gtest/gtest.h>

#include "crypto/der.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "fabric/ledger.hpp"
#include "fabric/orderer.hpp"
#include "fabric/statedb.hpp"
#include "fabric/transaction.hpp"
#include "wire/proto.hpp"

namespace bm::fabric {
namespace {

struct TestNet {
  TestNet() {
    org1 = &msp.add_org("Org1");
    org2 = &msp.add_org("Org2");
    client = org1->issue(Role::kClient, 0, "client0.org1");
    peer1 = org1->issue(Role::kPeer, 0, "peer0.org1");
    peer2 = org2->issue(Role::kPeer, 0, "peer0.org2");
    orderer_id = org1->issue(Role::kOrderer, 0, "orderer0.org1");
  }
  Msp msp;
  CertificateAuthority* org1;
  CertificateAuthority* org2;
  Identity client, peer1, peer2, orderer_id;
};

TxProposal sample_proposal(const std::string& tx_id) {
  TxProposal proposal;
  proposal.channel_id = "mychannel";
  proposal.chaincode_id = "smallbank";
  proposal.tx_id = tx_id;
  proposal.rwset.reads.push_back({"checking_1", Version{3, 2}});
  proposal.rwset.reads.push_back({"missing", std::nullopt});
  proposal.rwset.writes.push_back({"checking_1", to_bytes("990")});
  return proposal;
}

TEST(RwSet, MarshalRoundTrip) {
  ReadWriteSet rwset;
  rwset.reads.push_back({"a", Version{1, 2}});
  rwset.reads.push_back({"b", std::nullopt});
  rwset.writes.push_back({"c", to_bytes("value")});
  rwset.writes.push_back({"d", Bytes{}});
  const auto back = ReadWriteSet::unmarshal(rwset.marshal());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, rwset);
}

TEST(RwSet, EmptyRoundTrip) {
  const auto back = ReadWriteSet::unmarshal(ReadWriteSet{}.marshal());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->reads.empty());
  EXPECT_TRUE(back->writes.empty());
}

TEST(Transaction, BuildAndParse) {
  TestNet net;
  const Bytes envelope = build_envelope(sample_proposal("tx1"), net.client,
                                        {&net.peer1, &net.peer2});
  const auto parsed = parse_envelope(envelope);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->channel_id, "mychannel");
  EXPECT_EQ(parsed->chaincode_id, "smallbank");
  EXPECT_EQ(parsed->tx_id, "tx1");
  EXPECT_EQ(parsed->creator.subject_cn, "client0.org1");
  ASSERT_EQ(parsed->endorsements.size(), 2u);
  EXPECT_EQ(parsed->endorsements[0].cert.subject_cn, "peer0.org1");
  EXPECT_EQ(parsed->endorsements[1].cert.subject_cn, "peer0.org2");
  ASSERT_EQ(parsed->rwset.reads.size(), 2u);
  EXPECT_EQ(parsed->rwset.reads[0].key, "checking_1");
  EXPECT_EQ(parsed->rwset.reads[0].version, (Version{3, 2}));
  EXPECT_FALSE(parsed->rwset.reads[1].version.has_value());
}

TEST(Transaction, SignaturesVerify) {
  TestNet net;
  const Bytes envelope = build_envelope(sample_proposal("tx2"), net.client,
                                        {&net.peer1, &net.peer2});
  const auto tx = parse_envelope(envelope);
  ASSERT_TRUE(tx.has_value());

  const auto creator_sig = crypto::der_decode_signature(tx->signature);
  ASSERT_TRUE(creator_sig.has_value());
  EXPECT_TRUE(crypto::verify(tx->creator.public_key,
                             crypto::sha256(tx->payload_bytes), *creator_sig));

  for (const auto& endorsement : tx->endorsements) {
    const auto sig = crypto::der_decode_signature(endorsement.signature);
    ASSERT_TRUE(sig.has_value());
    const crypto::Digest digest = endorsement_digest(
        tx->chaincode_id, tx->rwset_bytes, endorsement.cert_bytes);
    EXPECT_TRUE(crypto::verify(endorsement.cert.public_key, digest, *sig));
  }
}

TEST(Transaction, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_envelope(to_bytes("garbage")).has_value());
  EXPECT_FALSE(parse_envelope(Bytes{}).has_value());
}

TEST(Transaction, IdentityBytesDominate) {
  // §3.2: at least 73% of block size is identity certificates (with 2
  // endorsements: 3 certificates per transaction).
  TestNet net;
  const Bytes envelope = build_envelope(sample_proposal("tx3"), net.client,
                                        {&net.peer1, &net.peer2});
  const std::size_t cert_bytes = net.client.cert.marshal().size() +
                                 net.peer1.cert.marshal().size() +
                                 net.peer2.cert.marshal().size();
  EXPECT_GT(static_cast<double>(cert_bytes) / envelope.size(), 0.6);
}

TEST(Block, MarshalRoundTrip) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 2});
  orderer.submit(build_envelope(sample_proposal("a"), net.client, {&net.peer1}));
  auto block =
      orderer.submit(build_envelope(sample_proposal("b"), net.client, {&net.peer1}));
  ASSERT_TRUE(block.has_value());

  const auto back = Block::unmarshal(block->marshal());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header, block->header);
  EXPECT_EQ(back->envelopes.size(), 2u);
  EXPECT_TRUE(equal(back->envelopes[0], block->envelopes[0]));
  EXPECT_EQ(back->metadata, block->metadata);
  EXPECT_EQ(back->block_hash(), block->block_hash());
}

/// The ProtoWriter-based Block::marshal, nested writers and all: the oracle
/// for the one-walk marshal.
Bytes marshal_oracle(const Block& block) {
  wire::ProtoWriter w;
  w.bytes_field(1, block.header.marshal());
  wire::ProtoWriter data;
  for (const Bytes& envelope : block.envelopes) data.bytes_field(1, envelope);
  w.message_field(2, data);
  wire::ProtoWriter metadata;
  metadata.bytes_field(1, block.metadata.orderer_cert);
  metadata.bytes_field(2, block.metadata.orderer_sig);
  metadata.bytes_field(3, block.metadata.tx_flags);
  w.message_field(3, metadata);
  return w.take();
}

/// A block of random bytes with envelopes of the given lengths.
Block random_block(Rng& rng, std::uint64_t number,
                   const std::vector<std::size_t>& envelope_lengths) {
  Block block;
  block.header.number = number;
  block.header.prev_hash = rng.bytes(32);
  block.header.data_hash = rng.bytes(32);
  for (const std::size_t length : envelope_lengths)
    block.envelopes.push_back(rng.bytes(length));
  block.metadata.orderer_cert = rng.bytes(300);
  block.metadata.orderer_sig = rng.bytes(71);
  block.metadata.tx_flags = rng.bytes(envelope_lengths.size());
  return block;
}

TEST(Block, OneWalkMarshalMatchesTheProtoWriterOracle) {
  Rng rng(41);
  std::vector<Block> blocks;
  blocks.push_back(random_block(rng, 0, {}));
  blocks.push_back(random_block(rng, 1, {500}));
  std::vector<std::size_t> many;
  for (int i = 0; i < 150; ++i) many.push_back(50 + rng.uniform(3000));
  blocks.push_back(random_block(rng, 127, many));
  // Envelope and field lengths on both sides of the 2- and 3-byte varints,
  // and block numbers that need several varint bytes.
  blocks.push_back(random_block(rng, 128, {127, 128, 129}));
  blocks.push_back(random_block(rng, 1ull << 40, {16383, 16384, 16385}));
  blocks.push_back(random_block(rng, 5, {16384 * 8}));
  Block no_cert = random_block(rng, 6, {10, 20});
  no_cert.metadata.orderer_cert.clear();
  blocks.push_back(no_cert);
  Block no_sig = random_block(rng, 7, {10, 20});
  no_sig.metadata.orderer_sig.clear();
  blocks.push_back(no_sig);
  Block no_flags = random_block(rng, 8, {10, 20});
  no_flags.metadata.tx_flags.clear();
  blocks.push_back(no_flags);
  Block bare;  // every field empty
  blocks.push_back(bare);

  const Bytes prev_commit = rng.bytes(32);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    SCOPED_TRACE("block " + std::to_string(i));
    const Block& block = blocks[i];
    const Bytes marshaled = block.marshal();
    EXPECT_EQ(marshaled, marshal_oracle(block));
    EXPECT_EQ(block.marshaled_size(), marshaled.size());
    EXPECT_EQ(chain_commit_hash(prev_commit, block),
              chain_commit_hash(prev_commit, marshaled));
    const auto back = Block::unmarshal(marshaled);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->marshal(), marshaled);
  }
}

TEST(Orderer, CutsAtBatchSize) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 3});
  EXPECT_FALSE(orderer.submit(build_envelope(sample_proposal("1"), net.client,
                                             {&net.peer1})));
  EXPECT_FALSE(orderer.submit(build_envelope(sample_proposal("2"), net.client,
                                             {&net.peer1})));
  const auto block = orderer.submit(
      build_envelope(sample_proposal("3"), net.client, {&net.peer1}));
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->tx_count(), 3u);
  EXPECT_EQ(block->header.number, 0u);
  EXPECT_FALSE(orderer.flush().has_value());
}

TEST(Orderer, ChainsPrevHashes) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 1});
  const auto b0 = orderer.submit(
      build_envelope(sample_proposal("1"), net.client, {&net.peer1}));
  const auto b1 = orderer.submit(
      build_envelope(sample_proposal("2"), net.client, {&net.peer1}));
  ASSERT_TRUE(b0 && b1);
  EXPECT_TRUE(b0->header.prev_hash.empty());
  EXPECT_TRUE(equal(b1->header.prev_hash,
                    crypto::digest_view(b0->block_hash())));
  EXPECT_EQ(b1->header.number, 1u);
}

TEST(Orderer, SignsBlocks) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 1});
  const auto block = orderer.submit(
      build_envelope(sample_proposal("1"), net.client, {&net.peer1}));
  ASSERT_TRUE(block.has_value());
  const auto sig = crypto::der_decode_signature(block->metadata.orderer_sig);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(crypto::verify(net.orderer_id.cert.public_key,
                             block->signing_digest(), *sig));
  EXPECT_TRUE(equal(block->header.data_hash,
                    crypto::digest_view(block->compute_data_hash())));
}

TEST(Orderer, DataHashDetectsTampering) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 1});
  auto block = orderer.submit(
      build_envelope(sample_proposal("1"), net.client, {&net.peer1}));
  block->envelopes[0][10] ^= 1;
  EXPECT_FALSE(equal(block->header.data_hash,
                     crypto::digest_view(block->compute_data_hash())));
}

TEST(StateDb, VersionedReadsAndWrites) {
  StateDb db;
  EXPECT_FALSE(db.get("k").has_value());
  db.put("k", to_bytes("v1"), Version{1, 0});
  const auto v = db.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(v->value), "v1");
  EXPECT_EQ(v->version, (Version{1, 0}));
  db.put("k", to_bytes("v2"), Version{2, 5});
  EXPECT_EQ(db.get("k")->version, (Version{2, 5}));
  EXPECT_EQ(db.size(), 1u);
}

TEST(StateDb, VersionMatching) {
  StateDb db;
  db.put("k", to_bytes("v"), Version{1, 0});
  EXPECT_TRUE(db.version_matches({"k", Version{1, 0}}));
  EXPECT_FALSE(db.version_matches({"k", Version{1, 1}}));
  EXPECT_FALSE(db.version_matches({"k", std::nullopt}));
  EXPECT_TRUE(db.version_matches({"absent", std::nullopt}));
  EXPECT_FALSE(db.version_matches({"absent", Version{0, 0}}));
}

TEST(StateDb, NamespacedKeysDontCollide) {
  EXPECT_NE(StateDb::namespaced("cc1", "key"), StateDb::namespaced("cc2", "key"));
  EXPECT_NE(StateDb::namespaced("a", "bc"), StateDb::namespaced("ab", "c"));
}

TEST(HistoryDb, RecordsWriters) {
  HistoryDb history;
  history.record("k", Version{1, 0});
  history.record("k", Version{2, 3});
  const auto* h = history.history("k");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->size(), 2u);
  EXPECT_EQ((*h)[1], (Version{2, 3}));
  EXPECT_EQ(history.history("absent"), nullptr);
}

TEST(Ledger, AppendsAndChainsCommitHashes) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 1});
  Ledger ledger;
  for (int i = 0; i < 3; ++i) {
    auto block = orderer.submit(build_envelope(
        sample_proposal(std::to_string(i)), net.client, {&net.peer1}));
    block->metadata.tx_flags = {0};
    ledger.append(std::move(*block));
  }
  EXPECT_EQ(ledger.height(), 3u);
  EXPECT_NE(ledger.at(0).commit_hash, ledger.at(1).commit_hash);
  EXPECT_EQ(ledger.last().commit_hash, ledger.at(2).commit_hash);
  EXPECT_GT(ledger.bytes_written(), 0u);
}

TEST(Ledger, RejectsBadAppends) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 1});
  Ledger ledger;
  auto b0 = orderer.submit(
      build_envelope(sample_proposal("1"), net.client, {&net.peer1}));
  auto b1 = orderer.submit(
      build_envelope(sample_proposal("2"), net.client, {&net.peer1}));
  b0->metadata.tx_flags = {0};
  b1->metadata.tx_flags = {0};

  Block out_of_order = *b1;
  EXPECT_THROW(ledger.append(out_of_order), std::invalid_argument);

  Block missing_flags = *b0;
  missing_flags.metadata.tx_flags.clear();
  EXPECT_THROW(ledger.append(missing_flags), std::invalid_argument);

  ledger.append(std::move(*b0));
  Block bad_prev = *b1;
  bad_prev.header.prev_hash = Bytes(32, 0xAA);
  EXPECT_THROW(ledger.append(bad_prev), std::invalid_argument);
  EXPECT_THROW(ledger.at(5), std::out_of_range);
}

TEST(Ledger, IdenticalInputsGiveIdenticalCommitHashes) {
  // Two ledgers fed the same flagged blocks agree — the paper's cross-peer
  // consistency check (§4.1).
  TestNet net;
  auto make_chain = [&](Ledger& ledger) {
    Orderer orderer(net.orderer_id, {.max_tx_per_block = 2});
    orderer.submit(build_envelope(sample_proposal("a"), net.client, {&net.peer1}));
    auto block = orderer.submit(
        build_envelope(sample_proposal("b"), net.client, {&net.peer1}));
    block->metadata.tx_flags = {0, 11};
    ledger.append(std::move(*block));
  };
  Ledger l1, l2;
  make_chain(l1);
  make_chain(l2);
  EXPECT_EQ(l1.last().commit_hash, l2.last().commit_hash);
}

TEST(Ledger, ChainDivergenceNamesTheFirstDisagreement) {
  TestNet net;
  Orderer orderer(net.orderer_id, {.max_tx_per_block = 1});
  std::vector<Block> blocks;
  for (int i = 0; i < 4; ++i) {
    auto block = orderer.submit(build_envelope(
        sample_proposal(std::to_string(i)), net.client, {&net.peer1}));
    block->metadata.tx_flags = {0};
    blocks.push_back(std::move(*block));
  }
  // The first `n` blocks, with the tx flag at height `flip` marked invalid.
  const auto chain = [&](std::size_t n, std::size_t flip = ~std::size_t{0}) {
    Ledger ledger;
    for (std::size_t h = 0; h < n; ++h) {
      Block block = blocks[h];
      if (h == flip) block.metadata.tx_flags = {11};
      ledger.append(std::move(block));
    }
    return ledger;
  };
  const auto hex_at = [](const Ledger& ledger, std::uint64_t h) {
    return hex_encode(crypto::digest_view(ledger.at(h).commit_hash));
  };
  const Ledger reference = chain(4);

  EXPECT_EQ(chain_divergence(chain(4), reference), "");
  EXPECT_EQ(chain_divergence(chain(2), reference), "");  // a prefix
  EXPECT_EQ(chain_divergence(Ledger{}, reference), "");

  // A flipped flag changes the commit hash, so no flag loop is needed.
  const Ledger flipped = chain(4, /*flip=*/2);
  EXPECT_EQ(chain_divergence(flipped, reference),
            "height 2: " + hex_at(flipped, 2) + " != " + hex_at(reference, 2));

  // Taller than the reference: the first height it cannot match.
  EXPECT_EQ(chain_divergence(reference, chain(3)),
            "height 3: " + hex_at(reference, 3) + " != none");

  // Snapshot-seeded at height 2 and holding no block: the tail hash decides.
  Ledger seeded;
  seeded.open_at(2, reference.at(1).commit_hash, blocks[1].block_hash());
  EXPECT_EQ(chain_divergence(seeded, reference), "");
  Ledger wrong_tail;
  wrong_tail.open_at(2, reference.at(0).commit_hash, blocks[1].block_hash());
  EXPECT_EQ(chain_divergence(wrong_tail, reference),
            "height 1: " + hex_at(reference, 0) + " != " + hex_at(reference, 1));

  // After one append, held blocks are checked from the base height up.
  seeded.append(blocks[2]);
  EXPECT_EQ(chain_divergence(seeded, reference), "");
  wrong_tail.append(blocks[2]);
  EXPECT_EQ(chain_divergence(wrong_tail, reference),
            "height 2: " + hex_at(wrong_tail, 2) + " != " +
                hex_at(reference, 2));
}

}  // namespace
}  // namespace bm::fabric
