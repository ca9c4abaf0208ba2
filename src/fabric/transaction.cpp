#include "fabric/transaction.hpp"

#include "crypto/der.hpp"
#include "wire/proto.hpp"

namespace bm::fabric {

using namespace txfield;

crypto::Digest endorsement_digest(std::string_view chaincode_id,
                                  ByteView rwset_bytes,
                                  ByteView endorser_cert) {
  return EndorsementDigester(chaincode_id, rwset_bytes).digest(endorser_cert);
}

EndorsementDigester::EndorsementDigester(std::string_view chaincode_id,
                                         ByteView rwset_bytes) {
  prefix_.update(to_bytes(chaincode_id));
  prefix_.update(rwset_bytes);
}

crypto::Digest EndorsementDigester::digest(ByteView endorser_cert) const {
  crypto::Sha256 h = prefix_;  // fork the midstate; the prefix stays intact
  h.update(endorser_cert);
  return h.finish();
}

namespace {

/// The Payload a client signs: Header plus TransactionAction, carrying the
/// endorsers' certificates and signatures in endorsement order.
Bytes marshal_payload(const TxProposal& proposal, ByteView rwset_bytes,
                      const Identity& client, std::span<const Bytes> certs,
                      std::span<const crypto::Signature> sigs) {
  // TransactionAction
  wire::ProtoWriter action;
  action.string_field(kChaincodeId, proposal.chaincode_id);
  action.bytes_field(kRwset, rwset_bytes);
  // ProposalResponsePayload equivalent: proposal hash + chaincode events.
  // Real Fabric transactions carry this alongside the rwset; it is part of
  // the non-identity payload the BMac protocol cannot strip.
  {
    wire::ProtoWriter response;
    response.bytes_field(1, crypto::digest_bytes(crypto::sha256(rwset_bytes)));
    Bytes events;
    crypto::Digest seed = crypto::sha256(to_bytes(proposal.tx_id));
    while (events.size() < 224) {
      append(events, crypto::digest_view(seed));
      seed = crypto::sha256(crypto::digest_view(seed));
    }
    events.resize(224);
    response.bytes_field(2, events);
    response.varint_field(3, 200);  // response status
    action.message_field(kResponsePayload, response);
  }
  for (std::size_t j = 0; j < certs.size(); ++j) {
    wire::ProtoWriter e;
    e.bytes_field(kEndorserCert, certs[j]);
    e.bytes_field(kEndorserSig, crypto::der_encode_signature(sigs[j]));
    action.message_field(kEndorsement, e);
  }

  // Header
  wire::ProtoWriter channel_header;
  channel_header.string_field(kChannelId, proposal.channel_id);
  channel_header.string_field(kTxId, proposal.tx_id);
  channel_header.varint_field(kEpoch, 0);
  channel_header.varint_field(kType, 3);  // ENDORSER_TRANSACTION

  wire::ProtoWriter signature_header;
  const Bytes creator_cert = client.cert.marshal();
  signature_header.bytes_field(kCreatorCert, creator_cert);
  signature_header.bytes_field(
      kNonce, crypto::digest_bytes(crypto::sha256(to_bytes(proposal.tx_id))));

  wire::ProtoWriter header;
  header.message_field(kChannelHeader, channel_header);
  header.message_field(kSignatureHeader, signature_header);

  // Payload
  wire::ProtoWriter payload;
  payload.message_field(kHeader, header);
  payload.message_field(kAction, action);
  return payload.take();
}

}  // namespace

std::vector<Bytes> build_envelopes(std::span<const TxDraft> drafts) {
  // The endorsers sign first: the batch's endorsements in draft order, each
  // draft's in endorser order.
  std::vector<Bytes> rwsets(drafts.size());
  std::vector<Bytes> certs;
  std::vector<crypto::SignItem> endorse;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    rwsets[i] = drafts[i].proposal.rwset.marshal();
    const EndorsementDigester digester(drafts[i].proposal.chaincode_id,
                                       rwsets[i]);
    for (const Identity* endorser : drafts[i].endorsers) {
      certs.push_back(endorser->cert.marshal());
      endorse.push_back({endorser->key, digester.digest(certs.back())});
    }
  }
  const std::vector<crypto::Signature> endorsement_sigs = crypto::sign(endorse);

  // Then the payloads, and the clients' signatures over them.
  std::vector<Bytes> payloads(drafts.size());
  std::vector<crypto::SignItem> clients(drafts.size());
  std::size_t first = 0;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const std::size_t count = drafts[i].endorsers.size();
    payloads[i] = marshal_payload(
        drafts[i].proposal, rwsets[i], *drafts[i].signer,
        std::span(certs).subspan(first, count),
        std::span(endorsement_sigs).subspan(first, count));
    first += count;
    clients[i] = {drafts[i].signer->key, crypto::sha256(payloads[i])};
  }
  const std::vector<crypto::Signature> client_sigs = crypto::sign(clients);

  std::vector<Bytes> envelopes(drafts.size());
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    wire::ProtoWriter envelope;
    envelope.bytes_field(kPayload, payloads[i]);
    envelope.bytes_field(kSignature,
                         crypto::der_encode_signature(client_sigs[i]));
    envelopes[i] = envelope.take();
  }
  return envelopes;
}

Bytes build_envelope(const TxProposal& proposal, const Identity& client,
                     const std::vector<const Identity*>& endorsers) {
  const TxDraft draft{proposal, endorsers, &client};
  return std::move(build_envelopes(std::span(&draft, 1)).front());
}

std::optional<ParsedTransaction> parse_envelope(ByteView envelope) {
  ParsedTransaction tx;

  const auto payload = wire::find_bytes_field(envelope, kPayload);
  const auto signature = wire::find_bytes_field(envelope, kSignature);
  if (!payload || !signature) return std::nullopt;
  tx.payload_bytes.assign(payload->begin(), payload->end());
  tx.signature.assign(signature->begin(), signature->end());

  const auto header = wire::find_bytes_field(*payload, kHeader);
  const auto action = wire::find_bytes_field(*payload, kAction);
  if (!header || !action) return std::nullopt;

  const auto channel_header = wire::find_bytes_field(*header, kChannelHeader);
  const auto signature_header =
      wire::find_bytes_field(*header, kSignatureHeader);
  if (!channel_header || !signature_header) return std::nullopt;

  if (const auto channel_id =
          wire::find_bytes_field(*channel_header, kChannelId))
    tx.channel_id = to_string(*channel_id);
  if (const auto tx_id = wire::find_bytes_field(*channel_header, kTxId))
    tx.tx_id = to_string(*tx_id);

  const auto creator = wire::find_bytes_field(*signature_header, kCreatorCert);
  if (!creator) return std::nullopt;
  tx.creator_cert.assign(creator->begin(), creator->end());
  auto creator_cert = Certificate::unmarshal(*creator);
  if (!creator_cert) return std::nullopt;
  tx.creator = std::move(*creator_cert);

  if (const auto chaincode = wire::find_bytes_field(*action, kChaincodeId))
    tx.chaincode_id = to_string(*chaincode);
  const auto rwset_bytes = wire::find_bytes_field(*action, kRwset);
  if (!rwset_bytes) return std::nullopt;
  tx.rwset_bytes.assign(rwset_bytes->begin(), rwset_bytes->end());
  auto rwset = ReadWriteSet::unmarshal(*rwset_bytes);
  if (!rwset) return std::nullopt;
  tx.rwset = std::move(*rwset);

  for (const ByteView endorsement_bytes :
       wire::find_repeated_bytes(*action, kEndorsement)) {
    ParsedTransaction::ParsedEndorsement endorsement;
    const auto cert = wire::find_bytes_field(endorsement_bytes, kEndorserCert);
    const auto sig = wire::find_bytes_field(endorsement_bytes, kEndorserSig);
    if (!cert || !sig) return std::nullopt;
    endorsement.cert_bytes.assign(cert->begin(), cert->end());
    auto parsed_cert = Certificate::unmarshal(*cert);
    if (!parsed_cert) return std::nullopt;
    endorsement.cert = std::move(*parsed_cert);
    endorsement.signature.assign(sig->begin(), sig->end());
    tx.endorsements.push_back(std::move(endorsement));
  }
  return tx;
}

}  // namespace bm::fabric
