#include "bmac/protocol.hpp"

#include <algorithm>

#include "crypto/der.hpp"
#include "fabric/statedb.hpp"
#include "fabric/transaction.hpp"
#include "wire/proto.hpp"

namespace bm::bmac {

namespace {

using fabric::txfield::kAction;
using fabric::txfield::kChaincodeId;
using fabric::txfield::kCreatorCert;
using fabric::txfield::kEndorsement;
using fabric::txfield::kEndorserCert;
using fabric::txfield::kEndorserSig;
using fabric::txfield::kHeader;
using fabric::txfield::kPayload;
using fabric::txfield::kRwset;
using fabric::txfield::kSignature;
using fabric::txfield::kSignatureHeader;

/// Absolute offset of a nested span inside its root buffer. Valid because
/// ProtoReader yields subspans aliasing the buffer it reads.
std::size_t offset_in(ByteView root, ByteView sub) {
  return static_cast<std::size_t>(sub.data() - root.data());
}

struct Removal {
  std::size_t offset = 0;  ///< in the original section bytes
  std::size_t length = 0;
  fabric::EncodedId id;
  std::uint8_t index = 0;
};

/// DataRemover: strip identities, producing the modified payload and the
/// locator annotations (offsets in the modified payload).
Bytes remove_identities(ByteView original, std::vector<Removal> removals,
                        std::vector<Annotation>& annotations) {
  std::sort(removals.begin(), removals.end(),
            [](const Removal& a, const Removal& b) {
              return a.offset < b.offset;
            });
  Bytes out;
  out.reserve(original.size());
  std::size_t pos = 0;
  for (const Removal& r : removals) {
    append(out, original.subspan(pos, r.offset - pos));
    Annotation locator;
    locator.kind = Annotation::Kind::kLocator;
    locator.index = r.index;
    locator.offset = static_cast<std::uint32_t>(out.size());
    locator.length = static_cast<std::uint32_t>(r.length);
    locator.id = r.id;
    annotations.push_back(locator);
    out.push_back(static_cast<std::uint8_t>(r.id.value >> 8));
    out.push_back(static_cast<std::uint8_t>(r.id.value));
    pos = r.offset + r.length;
  }
  append(out, original.subspan(pos));
  return out;
}

Annotation pointer(FieldId field, std::size_t offset, std::size_t length,
                   std::uint8_t index = 0) {
  Annotation a;
  a.kind = Annotation::Kind::kPointer;
  a.field = field;
  a.index = index;
  a.offset = static_cast<std::uint32_t>(offset);
  a.length = static_cast<std::uint32_t>(length);
  return a;
}

/// Metadata section body: orderer certificate (1) + orderer signature (2).
enum : std::uint32_t { kMetaCert = 1, kMetaSig = 2 };

}  // namespace

std::size_t VerifyBatch::add(Kind kind, std::uint32_t tx, bool parse_ok,
                             const crypto::VerifyItem& item) {
  entries_.push_back({item, kind, tx, parse_ok, std::nullopt});
  return entries_.size() - 1;
}

bool VerifyBatch::verdict(std::size_t slot) {
  Entry& entry = entries_[slot];
  if (!resolved_[static_cast<int>(entry.kind)]) resolve(entry.kind);
  if (!entry.ok)  // registered after its batch ran, or left out of it
    entry.ok = crypto::verify(entry.item.key, entry.item.digest,
                              entry.item.sig);
  return *entry.ok;
}

void VerifyBatch::resolve(Kind kind) {
  const bool endorsements = kind == Kind::kEndorsement;
  if (endorsements && !resolved_[0]) resolve(Kind::kCreator);
  resolved_[static_cast<int>(kind)] = true;
  // A transaction's entries are contiguous: its creator, then endorsements.
  std::optional<std::uint32_t> passed_tx;
  std::vector<crypto::VerifyItem> items;
  std::vector<Entry*> covered;
  for (Entry& e : entries_) {
    if (e.kind == Kind::kCreator && e.ok.value_or(false)) passed_tx = e.tx;
    if (e.kind != kind || e.ok ||
        (endorsements && !(e.parse_ok && passed_tx == e.tx)))
      continue;
    items.push_back(e.item);
    covered.push_back(&e);
  }
  const std::vector<bool> ok = crypto::verify(items);
  for (std::size_t i = 0; i < covered.size(); ++i) covered[i]->ok = ok[i];
}

SendResult ProtocolSender::send(const fabric::Block& block) {
  SendResult result;
  result.gossip_size = block.marshaled_size();

  const std::uint16_t total_sections =
      static_cast<std::uint16_t>(2 + block.envelopes.size());

  auto emit_identity_sync = [&](fabric::EncodedId id, ByteView cert_bytes) {
    BmacPacket sync;
    sync.header.block_num = block.header.number;
    sync.header.section = SectionType::kIdentitySync;
    sync.header.total_sections = total_sections;
    Annotation locator;
    locator.kind = Annotation::Kind::kLocator;
    locator.id = id;
    locator.length = static_cast<std::uint32_t>(cert_bytes.size());
    sync.annotations.push_back(locator);
    sync.payload.assign(cert_bytes.begin(), cert_bytes.end());
    result.packets.push_back(std::move(sync));
  };

  /// Look up (and on miss, sync) an identity; nullopt if unknown to the MSP.
  auto resolve = [&](ByteView cert_bytes) -> std::optional<fabric::EncodedId> {
    const auto lookup = cache_.lookup_or_insert(cert_bytes);
    if (!lookup) return std::nullopt;
    if (lookup->newly_inserted) emit_identity_sync(lookup->id, cert_bytes);
    return lookup->id;
  };

  // --- Header section -----------------------------------------------------
  {
    BmacPacket pkt;
    pkt.header.block_num = block.header.number;
    pkt.header.section = SectionType::kHeader;
    pkt.header.section_index = 0;
    pkt.header.total_sections = total_sections;
    pkt.payload = block.header.marshal();
    pkt.annotations.push_back(
        pointer(FieldId::kHeaderBytes, 0, pkt.payload.size()));
    pkt.header.annotation_count =
        static_cast<std::uint16_t>(pkt.annotations.size());
    pkt.header.payload_size = static_cast<std::uint32_t>(pkt.payload.size());
    result.packets.push_back(std::move(pkt));
  }

  // --- Transaction sections -----------------------------------------------
  for (std::size_t i = 0; i < block.envelopes.size(); ++i) {
    const ByteView envelope = block.envelopes[i];
    BmacPacket pkt;
    pkt.header.block_num = block.header.number;
    pkt.header.section = SectionType::kTransaction;
    pkt.header.section_index = static_cast<std::uint16_t>(i);
    pkt.header.total_sections = total_sections;

    std::vector<Annotation> pointers;
    std::vector<Removal> removals;

    const auto payload = wire::find_bytes_field(envelope, kPayload);
    const auto signature = wire::find_bytes_field(envelope, kSignature);
    if (payload && signature) {
      pointers.push_back(pointer(FieldId::kPayloadBytes,
                                 offset_in(envelope, *payload),
                                 payload->size()));
      pointers.push_back(pointer(FieldId::kCreatorSig,
                                 offset_in(envelope, *signature),
                                 signature->size()));
      if (const auto header = wire::find_bytes_field(*payload, kHeader)) {
        if (const auto sig_header =
                wire::find_bytes_field(*header, kSignatureHeader)) {
          if (const auto creator =
                  wire::find_bytes_field(*sig_header, kCreatorCert)) {
            if (const auto id = resolve(*creator)) {
              removals.push_back(Removal{offset_in(envelope, *creator),
                                         creator->size(), *id,
                                         kCreatorLocator});
              result.identities_removed++;
              result.identity_bytes_removed += creator->size();
            }
          }
        }
      }
      if (const auto action = wire::find_bytes_field(*payload, kAction)) {
        if (const auto cc = wire::find_bytes_field(*action, kChaincodeId))
          pointers.push_back(pointer(FieldId::kChaincodeId,
                                     offset_in(envelope, *cc), cc->size()));
        if (const auto rwset = wire::find_bytes_field(*action, kRwset))
          pointers.push_back(pointer(FieldId::kRwset,
                                     offset_in(envelope, *rwset),
                                     rwset->size()));
        std::uint8_t end_index = 0;
        for (const ByteView endorsement :
             wire::find_repeated_bytes(*action, kEndorsement)) {
          if (const auto sig =
                  wire::find_bytes_field(endorsement, kEndorserSig))
            pointers.push_back(pointer(FieldId::kEndorsementSig,
                                       offset_in(envelope, *sig), sig->size(),
                                       end_index));
          if (const auto cert =
                  wire::find_bytes_field(endorsement, kEndorserCert)) {
            if (const auto id = resolve(*cert)) {
              removals.push_back(Removal{offset_in(envelope, *cert),
                                         cert->size(), *id, end_index});
              result.identities_removed++;
              result.identity_bytes_removed += cert->size();
            }
          }
          ++end_index;
        }
      }
    }

    pkt.annotations = std::move(pointers);
    pkt.payload = remove_identities(envelope, std::move(removals),
                                    pkt.annotations);
    pkt.header.annotation_count =
        static_cast<std::uint16_t>(pkt.annotations.size());
    pkt.header.payload_size = static_cast<std::uint32_t>(pkt.payload.size());
    result.packets.push_back(std::move(pkt));
  }

  // --- Metadata section ----------------------------------------------------
  {
    wire::ProtoWriter meta;
    meta.bytes_field(kMetaCert, block.metadata.orderer_cert);
    meta.bytes_field(kMetaSig, block.metadata.orderer_sig);
    const Bytes original = meta.take();

    BmacPacket pkt;
    pkt.header.block_num = block.header.number;
    pkt.header.section = SectionType::kMetadata;
    pkt.header.section_index =
        static_cast<std::uint16_t>(total_sections - 1);
    pkt.header.total_sections = total_sections;

    std::vector<Removal> removals;
    const auto cert = wire::find_bytes_field(original, kMetaCert);
    const auto sig = wire::find_bytes_field(original, kMetaSig);
    if (sig)
      pkt.annotations.push_back(pointer(FieldId::kOrdererSig,
                                        offset_in(original, *sig),
                                        sig->size()));
    if (cert) {
      if (const auto id = resolve(*cert)) {
        removals.push_back(Removal{offset_in(original, *cert), cert->size(),
                                   *id, kOrdererLocator});
        result.identities_removed++;
        result.identity_bytes_removed += cert->size();
      }
    }
    pkt.payload =
        remove_identities(original, std::move(removals), pkt.annotations);
    pkt.header.annotation_count =
        static_cast<std::uint16_t>(pkt.annotations.size());
    pkt.header.payload_size = static_cast<std::uint32_t>(pkt.payload.size());
    result.packets.push_back(std::move(pkt));
  }

  for (const BmacPacket& pkt : result.packets)
    result.bmac_size += pkt.wire_size();
  return result;
}

std::optional<Bytes> ProtocolReceiver::reconstruct_section(
    const BmacPacket& packet, const HwIdentityCache& cache) {
  // Locators are emitted in ascending modified-payload offset order.
  Bytes out;
  std::size_t pos = 0;
  for (const Annotation& a : packet.annotations) {
    if (a.kind != Annotation::Kind::kLocator) continue;
    if (a.offset + 2 > packet.payload.size() || a.offset < pos)
      return std::nullopt;
    append(out, ByteView(packet.payload).subspan(pos, a.offset - pos));
    const auto* entry = cache.find(a.id);
    if (entry == nullptr || entry->cert_bytes.size() != a.length)
      return std::nullopt;
    append(out, entry->cert_bytes);
    pos = a.offset + 2;
  }
  append(out, ByteView(packet.payload).subspan(pos));
  return out;
}

ProtocolReceiver::Emitted ProtocolReceiver::on_packet(
    const BmacPacket& packet) {
  Emitted emitted;

  if (packet.header.section == SectionType::kIdentitySync) {
    if (packet.annotations.size() != 1 ||
        !cache_.insert(packet.annotations[0].id, packet.payload))
      emitted.error = true;
    return emitted;
  }

  PendingBlock& pending = pending_[packet.header.block_num];
  const auto section = reconstruct_section(packet, cache_);
  if (!section) {
    emitted.error = true;
    return emitted;
  }

  auto find_pointer = [&](FieldId field,
                          std::uint8_t index = 0) -> std::optional<ByteView> {
    for (const Annotation& a : packet.annotations) {
      if (a.kind != Annotation::Kind::kPointer || a.field != field ||
          a.index != index)
        continue;
      if (a.offset + a.length > section->size()) return std::nullopt;
      return ByteView(*section).subspan(a.offset, a.length);
    }
    return std::nullopt;
  };

  auto locator_id = [&](std::uint8_t index)
      -> std::optional<fabric::EncodedId> {
    for (const Annotation& a : packet.annotations)
      if (a.kind == Annotation::Kind::kLocator && a.index == index)
        return a.id;
    return std::nullopt;
  };

  /// DataProcessor: DER signature + cached public key -> VerifyRequest.
  auto make_request = [&](std::optional<ByteView> der_sig,
                          std::optional<fabric::EncodedId> signer,
                          const crypto::Digest& digest) {
    VerifyRequest request;
    request.digest = digest;
    request.well_formed = false;
    if (!der_sig || !signer) return request;
    const auto sig = crypto::der_decode_signature(*der_sig);
    const auto* entry = cache_.find(*signer);
    if (!sig || entry == nullptr) return request;
    request.signature = *sig;
    request.key = entry->cert.public_key;
    request.well_formed = true;
    return request;
  };

  switch (packet.header.section) {
    case SectionType::kHeader: {
      pending.header_bytes = *section;
      pending.have_header = true;
      pending.tx_count = packet.header.total_sections >= 2
                             ? packet.header.total_sections - 2
                             : 0;
      break;
    }
    case SectionType::kMetadata: {
      if (!pending.have_header) {
        emitted.error = true;
        return emitted;
      }
      const auto signer = locator_id(kOrdererLocator);
      crypto::Sha256 h;  // HashCalculator unit 1: block hash
      h.update(pending.header_bytes);
      if (signer) {
        if (const auto* entry = cache_.find(*signer))
          h.update(entry->cert_bytes);
      }
      BlockEntry entry;
      entry.block_num = packet.header.block_num;
      entry.tx_count = pending.tx_count;
      entry.verify =
          make_request(find_pointer(FieldId::kOrdererSig), signer, h.finish());
      emitted.block = entry;
      pending_.erase(packet.header.block_num);
      break;
    }
    case SectionType::kTransaction: {
      TxEntry tx;
      tx.block_num = packet.header.block_num;
      tx.tx_seq = packet.header.section_index;

      const auto chaincode = find_pointer(FieldId::kChaincodeId);
      if (chaincode) tx.chaincode_id = to_string(*chaincode);

      const auto payload = find_pointer(FieldId::kPayloadBytes);
      crypto::Digest tx_digest{};  // HashCalculator unit 2: tx hash
      if (payload) tx_digest = crypto::sha256(*payload);
      tx.verify = make_request(find_pointer(FieldId::kCreatorSig),
                               locator_id(kCreatorLocator), tx_digest);
      if (!payload) tx.verify.well_formed = false;

      const auto rwset_bytes = find_pointer(FieldId::kRwset);

      // Endorsements, in index order.
      for (std::uint8_t index = 0;; ++index) {
        const auto signer = locator_id(index);
        const auto sig = find_pointer(FieldId::kEndorsementSig, index);
        if (!signer && !sig) break;
        EndsEntry endorsement;
        endorsement.endorser =
            signer.value_or(fabric::EncodedId{0});
        crypto::Sha256 h;  // HashCalculator unit 3: endorsement hash
        if (chaincode) h.update(*chaincode);
        if (rwset_bytes) h.update(*rwset_bytes);
        if (signer) {
          if (const auto* entry = cache_.find(*signer))
            h.update(entry->cert_bytes);
        }
        endorsement.verify = make_request(sig, signer, h.finish());
        emitted.ends.push_back(std::move(endorsement));
      }
      tx.endorsement_count = static_cast<std::uint16_t>(emitted.ends.size());

      // Simplified protobuf decoder for the read and write sets.
      if (rwset_bytes) {
        if (const auto rwset = fabric::ReadWriteSet::unmarshal(*rwset_bytes)) {
          for (const auto& read : rwset->reads)
            emitted.reads.push_back(RdsetEntry{
                fabric::StateDb::namespaced(tx.chaincode_id, read.key),
                read.version});
          for (const auto& write : rwset->writes)
            emitted.writes.push_back(WrsetEntry{
                fabric::StateDb::namespaced(tx.chaincode_id, write.key),
                write.value});
        }
      }
      tx.read_count = static_cast<std::uint16_t>(emitted.reads.size());
      tx.write_count = static_cast<std::uint16_t>(emitted.writes.size());
      tx.parse_ok = payload.has_value() && chaincode.has_value() &&
                    rwset_bytes.has_value() &&
                    find_pointer(FieldId::kCreatorSig).has_value();
      auto join = [&](VerifyRequest& request, VerifyBatch::Kind kind) {
        if (!request.well_formed) return;
        request.slot = pending.batch->add(
            kind, tx.tx_seq, tx.parse_ok,
            {request.key, request.digest, request.signature});
        request.batch = pending.batch;
      };
      join(tx.verify, VerifyBatch::Kind::kCreator);
      for (EndsEntry& end : emitted.ends)
        join(end.verify, VerifyBatch::Kind::kEndorsement);
      emitted.txs.push_back(std::move(tx));
      break;
    }
    case SectionType::kIdentitySync:
      break;  // handled above
  }
  return emitted;
}

}  // namespace bm::bmac
