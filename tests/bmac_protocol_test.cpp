#include <gtest/gtest.h>

#include "bmac/protocol.hpp"
#include "crypto/der.hpp"
#include "fabric/orderer.hpp"
#include "fabric/transaction.hpp"

namespace bm::bmac {
namespace {

using fabric::Block;
using fabric::Identity;
using fabric::Msp;
using fabric::Orderer;
using fabric::Role;
using fabric::TxProposal;

struct ProtocolNet {
  ProtocolNet() {
    org1 = &msp.add_org("Org1");
    org2 = &msp.add_org("Org2");
    client = org1->issue(Role::kClient, 0, "client0.org1");
    peer1 = org1->issue(Role::kPeer, 0, "peer0.org1");
    peer2 = org2->issue(Role::kPeer, 0, "peer0.org2");
    orderer = std::make_unique<Orderer>(
        org1->issue(Role::kOrderer, 0, "orderer0.org1"),
        Orderer::Config{.max_tx_per_block = 100});
  }

  Block make_block(int n_txs, int endorsements = 2) {
    for (int i = 0; i < n_txs; ++i) {
      TxProposal proposal;
      proposal.channel_id = "ch";
      proposal.chaincode_id = "smallbank";
      proposal.tx_id = "tx" + std::to_string(next_id++);
      proposal.rwset.reads.push_back({"r" + std::to_string(i), std::nullopt});
      proposal.rwset.writes.push_back({"w" + std::to_string(i), to_bytes("v")});
      std::vector<const Identity*> endorsing;
      if (endorsements >= 1) endorsing.push_back(&peer1);
      if (endorsements >= 2) endorsing.push_back(&peer2);
      orderer->submit(build_envelope(proposal, client, endorsing));
    }
    return *orderer->flush();
  }

  Msp msp;
  fabric::CertificateAuthority* org1;
  fabric::CertificateAuthority* org2;
  Identity client, peer1, peer2;
  std::unique_ptr<Orderer> orderer;
  int next_id = 0;
};

TEST(SenderIdentityCache, AssignsAndRemembersIds) {
  ProtocolNet net;
  SenderIdentityCache cache(net.msp);
  const Bytes cert = net.peer1.cert.marshal();

  const auto first = cache.lookup_or_insert(cert);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->newly_inserted);
  EXPECT_EQ(first->id.org(), 1);
  EXPECT_EQ(first->id.role(), Role::kPeer);

  const auto second = cache.lookup_or_insert(cert);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->newly_inserted);
  EXPECT_EQ(second->id, first->id);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SenderIdentityCache, RejectsUnknownOrg) {
  ProtocolNet net;
  SenderIdentityCache cache(net.msp);
  fabric::CertificateAuthority foreign("OrgX", 9);
  EXPECT_FALSE(cache.lookup_or_insert(
      foreign.issue(Role::kPeer, 0, "p").cert.marshal()).has_value());
}

TEST(HwIdentityCache, InsertAndFind) {
  ProtocolNet net;
  HwIdentityCache cache;
  const auto id = fabric::EncodedId::make(1, Role::kPeer, 0);
  EXPECT_TRUE(cache.insert(id, net.peer1.cert.marshal()));
  const auto* entry = cache.find(id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->cert.subject_cn, "peer0.org1");
  EXPECT_EQ(cache.find(fabric::EncodedId::make(3, Role::kPeer, 0)), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_FALSE(cache.insert(id, to_bytes("garbage")));
}

TEST(ProtocolSender, SectionCountsAndSizes) {
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  const Block block = net.make_block(5);
  const SendResult result = sender.send(block);

  // 1 header + 5 tx + 1 metadata + identity syncs (client, 2 peers, orderer).
  int syncs = 0, headers = 0, txs = 0, metas = 0;
  for (const auto& pkt : result.packets) {
    switch (pkt.header.section) {
      case SectionType::kIdentitySync: ++syncs; break;
      case SectionType::kHeader: ++headers; break;
      case SectionType::kTransaction: ++txs; break;
      case SectionType::kMetadata: ++metas; break;
    }
    EXPECT_EQ(pkt.header.total_sections, 7);
  }
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(txs, 5);
  EXPECT_EQ(metas, 1);
  EXPECT_EQ(syncs, 4);
  EXPECT_EQ(result.identities_removed, 5u * 3u + 1u);  // 3 per tx + orderer
  EXPECT_GT(result.gossip_size, result.bmac_size);
}

TEST(ProtocolSender, SteadyStateBandwidthSavings) {
  // After the identity cache warms up, the paper reports blocks 3.4-5.3x
  // smaller and >= 73% of a block being identity bytes (2+ endorsements).
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  sender.send(net.make_block(10));  // warm up the cache
  const SendResult result = sender.send(net.make_block(10));
  const double ratio = static_cast<double>(result.gossip_size) /
                       static_cast<double>(result.bmac_size);
  EXPECT_GE(ratio, 3.0);
  EXPECT_LE(ratio, 6.5);
  EXPECT_GT(static_cast<double>(result.identity_bytes_removed) /
                static_cast<double>(result.gossip_size),
            0.70);
}

TEST(ProtocolReceiver, SectionReconstructionIsExact) {
  // DataRemover then DataInserter must reproduce the original section bytes
  // bit-exactly (the round-trip property of §3.2).
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  const Block block = net.make_block(3);
  const SendResult result = sender.send(block);

  HwIdentityCache cache;
  ProtocolReceiver receiver(cache);
  std::size_t tx_index = 0;
  for (const auto& pkt : result.packets) {
    if (pkt.header.section == SectionType::kIdentitySync) {
      receiver.on_packet(pkt);  // populates the cache
      continue;
    }
    if (pkt.header.section == SectionType::kTransaction) {
      const auto reconstructed =
          ProtocolReceiver::reconstruct_section(pkt, cache);
      ASSERT_TRUE(reconstructed.has_value());
      EXPECT_TRUE(equal(*reconstructed, block.envelopes[tx_index]))
          << "tx " << tx_index;
      ++tx_index;
    }
  }
  EXPECT_EQ(tx_index, 3u);
}

TEST(ProtocolReceiver, EmitsRecordsMatchingGroundTruth) {
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  const Block block = net.make_block(4);
  const SendResult result = sender.send(block);

  HwIdentityCache cache;
  std::vector<TxEntry> txs;
  std::vector<EndsEntry> ends;
  std::vector<RdsetEntry> reads;
  std::vector<WrsetEntry> writes;
  std::optional<BlockEntry> block_entry;
  {
    ProtocolReceiver receiver(cache);
    for (const auto& pkt : result.packets) {
      auto emitted = receiver.on_packet(pkt);
      EXPECT_FALSE(emitted.error);
      for (auto& t : emitted.txs) txs.push_back(std::move(t));
      for (auto& e : emitted.ends) ends.push_back(std::move(e));
      for (auto& r : emitted.reads) reads.push_back(std::move(r));
      for (auto& w : emitted.writes) writes.push_back(std::move(w));
      if (emitted.block) block_entry = std::move(emitted.block);
    }
  }  // The records outlive the receiver: their verdicts come from the
     // block's VerifyBatch, which they share.

  ASSERT_TRUE(block_entry.has_value());
  EXPECT_EQ(block_entry->block_num, block.header.number);
  EXPECT_EQ(block_entry->tx_count, 4u);
  // Orderer signature verifies against the extracted digest/key.
  EXPECT_TRUE(block_entry->verify.execute());

  ASSERT_EQ(txs.size(), 4u);
  ASSERT_EQ(ends.size(), 8u);
  ASSERT_EQ(reads.size(), 4u);
  ASSERT_EQ(writes.size(), 4u);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const auto truth = fabric::parse_envelope(block.envelopes[i]);
    ASSERT_TRUE(truth.has_value());
    EXPECT_EQ(txs[i].tx_seq, i);
    EXPECT_TRUE(txs[i].parse_ok);
    EXPECT_EQ(txs[i].chaincode_id, truth->chaincode_id);
    EXPECT_EQ(txs[i].endorsement_count, 2);
    EXPECT_EQ(txs[i].read_count, 1);
    EXPECT_EQ(txs[i].write_count, 1);
    // The extracted client-signature request verifies (real ECDSA).
    EXPECT_TRUE(txs[i].verify.execute());
  }
  for (const auto& end : ends) {
    EXPECT_TRUE(end.verify.execute());
    EXPECT_TRUE(end.endorser.org() == 1 || end.endorser.org() == 2);
  }
  for (const auto& read : reads)
    EXPECT_FALSE(read.expected_version.has_value());
}

TEST(ProtocolReceiver, DetectsTamperedSignatures) {
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  Block block = net.make_block(1);
  // Corrupt the client signature inside the envelope before sending.
  block.envelopes[0].back() ^= 0x55;
  const SendResult result = sender.send(block);

  HwIdentityCache cache;
  ProtocolReceiver receiver(cache);
  std::vector<TxEntry> txs;
  std::vector<EndsEntry> ends;
  for (const auto& pkt : result.packets) {
    auto emitted = receiver.on_packet(pkt);
    for (auto& t : emitted.txs) txs.push_back(std::move(t));
    for (auto& e : emitted.ends) ends.push_back(std::move(e));
  }
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_FALSE(txs[0].verify.execute());
  // The failed creator keeps its endorsements out of the block's batch;
  // asked anyway, each is verified alone.
  ASSERT_EQ(ends.size(), 2u);
  for (const auto& end : ends) EXPECT_TRUE(end.verify.execute());
}

TEST(ProtocolReceiver, MissingIdentityCacheEntryFails) {
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  const SendResult result = sender.send(net.make_block(1));

  HwIdentityCache cold_cache;  // identity syncs deliberately dropped
  ProtocolReceiver receiver(cold_cache);
  for (const auto& pkt : result.packets) {
    if (pkt.header.section == SectionType::kIdentitySync) continue;
    const auto emitted = receiver.on_packet(pkt);
    if (pkt.header.section == SectionType::kTransaction)
      EXPECT_TRUE(emitted.error);  // reconstruction impossible
  }
}

TEST(ProtocolReceiver, AnnotationOffsetsAlwaysInBounds) {
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  const SendResult result = sender.send(net.make_block(6));
  HwIdentityCache cache;
  for (const auto& pkt : result.packets) {
    if (pkt.header.section == SectionType::kIdentitySync) {
      cache.insert(pkt.annotations[0].id, pkt.payload);
      continue;
    }
    const auto reconstructed = ProtocolReceiver::reconstruct_section(pkt, cache);
    ASSERT_TRUE(reconstructed.has_value());
    for (const auto& a : pkt.annotations) {
      if (a.kind == Annotation::Kind::kPointer)
        EXPECT_LE(a.offset + a.length, reconstructed->size());
      else
        EXPECT_LE(a.offset + 2, pkt.payload.size());
    }
  }
}

TEST(ProtocolSender, IdentitySyncOnlyOnFirstAppearance) {
  ProtocolNet net;
  ProtocolSender sender(net.msp);
  const SendResult first = sender.send(net.make_block(2));
  const SendResult second = sender.send(net.make_block(2));
  int syncs_second = 0;
  for (const auto& pkt : second.packets)
    if (pkt.header.section == SectionType::kIdentitySync) ++syncs_second;
  EXPECT_EQ(syncs_second, 0);
  EXPECT_LT(second.bmac_size, first.bmac_size);
}

}  // namespace
}  // namespace bm::bmac
