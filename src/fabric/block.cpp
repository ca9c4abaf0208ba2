#include "fabric/block.hpp"

#include "wire/proto.hpp"

namespace bm::fabric {

namespace {
enum : std::uint32_t {
  // Block
  kHeader = 1,
  kData = 2,
  kMetadata = 3,
  // BlockHeader
  kNumber = 1,
  kPrevHash = 2,
  kDataHash = 3,
  // BlockData
  kEnvelope = 1,  // repeated
  // BlockMetadata
  kOrdererCert = 1,
  kOrdererSig = 2,
  kTxFlags = 3,
};
}  // namespace

const char* tx_validation_code_name(TxValidationCode code) {
  switch (code) {
    case TxValidationCode::kValid: return "VALID";
    case TxValidationCode::kBadPayload: return "BAD_PAYLOAD";
    case TxValidationCode::kBadCreatorSignature: return "BAD_CREATOR_SIGNATURE";
    case TxValidationCode::kInvalidEndorserTransaction:
      return "INVALID_ENDORSER_TRANSACTION";
    case TxValidationCode::kEndorsementPolicyFailure:
      return "ENDORSEMENT_POLICY_FAILURE";
    case TxValidationCode::kMvccReadConflict: return "MVCC_READ_CONFLICT";
    case TxValidationCode::kNotValidated: return "NOT_VALIDATED";
  }
  return "?";
}

Bytes BlockHeader::marshal() const {
  wire::ProtoWriter w;
  w.varint_field(kNumber, number);
  w.bytes_field(kPrevHash, prev_hash);
  w.bytes_field(kDataHash, data_hash);
  return w.take();
}

std::optional<BlockHeader> BlockHeader::unmarshal(ByteView data) {
  BlockHeader header;
  wire::ProtoReader reader(data);
  while (auto f = reader.next()) {
    switch (f->number) {
      case kNumber: header.number = f->varint; break;
      case kPrevHash:
        header.prev_hash.assign(f->bytes.begin(), f->bytes.end());
        break;
      case kDataHash:
        header.data_hash.assign(f->bytes.begin(), f->bytes.end());
        break;
      default: break;
    }
  }
  if (!reader.ok()) return std::nullopt;
  return header;
}

crypto::Digest Block::compute_data_hash() const {
  crypto::Sha256 h;
  for (const Bytes& envelope : envelopes) h.update(envelope);
  return h.finish();
}

crypto::Digest Block::block_hash() const {
  return crypto::sha256(header.marshal());
}

crypto::Digest Block::signing_digest() const {
  crypto::Sha256 h;
  h.update(header.marshal());
  h.update(metadata.orderer_cert);
  return h.finish();
}

void Block::set_tx_flags(const std::vector<TxValidationCode>& codes) {
  metadata.tx_flags.clear();
  for (const TxValidationCode code : codes)
    metadata.tx_flags.push_back(static_cast<std::uint8_t>(code));
}

Bytes Block::marshal() const {
  wire::ProtoWriter w;
  w.bytes_field(kHeader, header.marshal());

  wire::ProtoWriter data;
  for (const Bytes& envelope : envelopes) data.bytes_field(kEnvelope, envelope);
  w.message_field(kData, data);

  wire::ProtoWriter metadata_writer;
  metadata_writer.bytes_field(kOrdererCert, metadata.orderer_cert);
  metadata_writer.bytes_field(kOrdererSig, metadata.orderer_sig);
  metadata_writer.bytes_field(
      kTxFlags, ByteView(metadata.tx_flags.data(), metadata.tx_flags.size()));
  w.message_field(kMetadata, metadata_writer);
  return w.take();
}

std::optional<Block> Block::unmarshal(ByteView data) {
  Block block;
  const auto header_bytes = wire::find_bytes_field(data, kHeader);
  const auto data_bytes = wire::find_bytes_field(data, kData);
  const auto metadata_bytes = wire::find_bytes_field(data, kMetadata);
  if (!header_bytes || !data_bytes || !metadata_bytes) return std::nullopt;

  auto header = BlockHeader::unmarshal(*header_bytes);
  if (!header) return std::nullopt;
  block.header = std::move(*header);

  for (const ByteView envelope :
       wire::find_repeated_bytes(*data_bytes, kEnvelope))
    block.envelopes.emplace_back(envelope.begin(), envelope.end());

  if (const auto cert = wire::find_bytes_field(*metadata_bytes, kOrdererCert))
    block.metadata.orderer_cert.assign(cert->begin(), cert->end());
  if (const auto sig = wire::find_bytes_field(*metadata_bytes, kOrdererSig))
    block.metadata.orderer_sig.assign(sig->begin(), sig->end());
  if (const auto flags = wire::find_bytes_field(*metadata_bytes, kTxFlags))
    block.metadata.tx_flags.assign(flags->begin(), flags->end());
  return block;
}

std::size_t Block::marshaled_size() const { return marshal().size(); }

}  // namespace bm::fabric
