#include "fabric/block.hpp"

#include <array>

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

/// Marshaled size of a length-delimited field with a `length`-byte value:
/// one tag byte (every field number here is below 16), the length, the value.
std::size_t field_size(std::size_t length) {
  return 1 + wire::varint_size(length) + length;
}

/// Value lengths of a block's header, data and metadata fields.
std::array<std::size_t, 3> field_lengths(const Block& block) {
  const BlockHeader& header = block.header;
  const BlockMetadata& metadata = block.metadata;
  std::size_t data = 0;
  for (const Bytes& envelope : block.envelopes)
    data += field_size(envelope.size());
  return {1 + wire::varint_size(header.number) +  // the number's tag + varint
              field_size(header.prev_hash.size()) +
              field_size(header.data_hash.size()),
          data,
          field_size(metadata.orderer_cert.size()) +
              field_size(metadata.orderer_sig.size()) +
              field_size(metadata.tx_flags.size())};
}
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

void Block::marshal_to(const std::function<void(ByteView)>& sink) const {
  const auto [header_length, data_length, metadata_length] =
      field_lengths(*this);
  Bytes run;  // tag/length bytes (and the short header) before the next view
  run.reserve(header_length + 32);
  const auto head = [&run](std::uint32_t field, std::size_t length) {
    wire::put_varint(run, (field << 3) | 2);  // wire type 2: length-delimited
    wire::put_varint(run, length);
  };
  const auto value = [&](std::uint32_t field, ByteView bytes) {
    head(field, bytes.size());
    sink(run);
    run.clear();
    sink(bytes);
  };
  head(kHeader, header_length);
  append(run, header.marshal());
  head(kData, data_length);
  for (const Bytes& envelope : envelopes) value(kEnvelope, envelope);
  head(kMetadata, metadata_length);
  value(kOrdererCert, metadata.orderer_cert);
  value(kOrdererSig, metadata.orderer_sig);
  value(kTxFlags, metadata.tx_flags);
}

Bytes Block::marshal() const {
  Bytes out;
  out.reserve(marshaled_size());
  marshal_to([&out](ByteView piece) { append(out, piece); });
  return out;
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

std::size_t Block::marshaled_size() const {
  std::size_t size = 0;
  for (const std::size_t length : field_lengths(*this))
    size += field_size(length);
  return size;
}

}  // namespace bm::fabric
