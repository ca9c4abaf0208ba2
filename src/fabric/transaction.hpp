// Transactions: Fabric's nested envelope structure, endorsement and parsing.
//
// The marshaled layering mirrors Fabric (§2.1/§3.2):
//   Envelope { payload, creator signature }
//     Payload { Header { ChannelHeader, SignatureHeader{creator cert} },
//               TransactionAction { chaincode id, rwset, endorsements[] } }
//       Endorsement { endorser cert, endorser signature }
// Every layer is an independently marshaled protobuf embedded as a bytes
// field in its parent — the recursive-decoding burden the BMac protocol is
// designed to avoid.
#pragma once

#include <span>

#include "fabric/identity.hpp"
#include "fabric/rwset.hpp"

namespace bm::fabric {

/// What an endorser signs: H(chaincode id || rwset bytes || endorser cert).
crypto::Digest endorsement_digest(std::string_view chaincode_id,
                                  ByteView rwset_bytes,
                                  ByteView endorser_cert);

/// Batched endorsement digests for one transaction: the (chaincode, rwset)
/// prefix — the bulk of the hashed bytes — is absorbed into a SHA-256
/// midstate ONCE, then forked per endorser certificate. Byte-identical to
/// endorsement_digest for every input (SHA-256 streams over the same
/// concatenation); with M endorsements the rwset is hashed once, not M
/// times.
class EndorsementDigester {
 public:
  EndorsementDigester(std::string_view chaincode_id, ByteView rwset_bytes);

  crypto::Digest digest(ByteView endorser_cert) const;

 private:
  crypto::Sha256 prefix_;  ///< midstate after chaincode id + rwset bytes
};

/// A transaction proposal: the client-visible inputs before endorsement.
struct TxProposal {
  std::string channel_id;
  std::string chaincode_id;
  std::string tx_id;
  ReadWriteSet rwset;
};

/// A transaction ready to sign: the executed proposal, the endorsers who
/// sign its rwset and the client who signs the envelope. It points at the
/// identities, which must outlive it.
struct TxDraft {
  TxProposal proposal;
  std::vector<const Identity*> endorsers;
  const Identity* signer = nullptr;
};

/// Build fully endorsed, client-signed envelopes, one per draft. Every
/// draft's endorsers sign its rwset (simulating the execution phase having
/// produced it), all of the batch's endorsements as one crypto::sign
/// batch; then the clients sign the payloads as a second batch. Each
/// envelope is the same bytes however the drafts are batched.
std::vector<Bytes> build_envelopes(std::span<const TxDraft> drafts);

/// One envelope: a batch of one.
Bytes build_envelope(const TxProposal& proposal, const Identity& client,
                     const std::vector<const Identity*>& endorsers);

/// Everything the validator needs, parsed out of a marshaled envelope, with
/// the raw byte ranges retained for signature verification.
struct ParsedTransaction {
  std::string channel_id;
  std::string chaincode_id;
  std::string tx_id;

  Bytes payload_bytes;    ///< signed by the creator
  Bytes signature;        ///< creator's DER signature
  Bytes creator_cert;     ///< marshaled Certificate
  Certificate creator;    ///< parsed creator certificate

  ReadWriteSet rwset;
  Bytes rwset_bytes;

  struct ParsedEndorsement {
    Bytes cert_bytes;
    Certificate cert;
    Bytes signature;
  };
  std::vector<ParsedEndorsement> endorsements;
};

/// Full recursive unmarshal of an envelope (the software validator path).
std::optional<ParsedTransaction> parse_envelope(ByteView envelope);

/// Wire field numbers, shared with the BMac protocol's annotation generator
/// (which locates the same fields without recursive decoding).
namespace txfield {
enum : std::uint32_t {
  // Envelope
  kPayload = 1,
  kSignature = 2,
  // Payload
  kHeader = 1,
  kAction = 2,
  // Header
  kChannelHeader = 1,
  kSignatureHeader = 2,
  // ChannelHeader
  kChannelId = 1,
  kTxId = 2,
  kEpoch = 3,
  kType = 4,
  // SignatureHeader
  kCreatorCert = 1,
  kNonce = 2,
  // TransactionAction
  kChaincodeId = 1,
  kRwset = 2,
  kEndorsement = 3,  // repeated
  kResponsePayload = 4,
  // Endorsement
  kEndorserCert = 1,
  kEndorserSig = 2,
};
}  // namespace txfield

}  // namespace bm::fabric
