// Blocks: header, data (marshaled envelopes) and metadata.
//
// The orderer signs H(header bytes || orderer cert); validators check that
// signature in step 1 of the validation pipeline (§2.2). Per-transaction
// validation flags live in the metadata, filled in at commit time exactly
// like Fabric's TxValidationFlags.
#pragma once

#include <functional>

#include "fabric/identity.hpp"

namespace bm::fabric {

/// Transaction validation codes (subset of Fabric's peer.TxValidationCode).
enum class TxValidationCode : std::uint8_t {
  kValid = 0,
  kBadPayload = 1,
  kBadCreatorSignature = 4,
  kInvalidEndorserTransaction = 5,
  kEndorsementPolicyFailure = 10,
  kMvccReadConflict = 11,
  kNotValidated = 255,
};

const char* tx_validation_code_name(TxValidationCode code);

struct BlockHeader {
  std::uint64_t number = 0;
  Bytes prev_hash;  ///< hash of the previous block's header
  Bytes data_hash;  ///< hash over all envelopes

  Bytes marshal() const;
  static std::optional<BlockHeader> unmarshal(ByteView data);

  friend bool operator==(const BlockHeader&, const BlockHeader&) = default;
};

struct BlockMetadata {
  Bytes orderer_cert;  ///< marshaled Certificate of the signing orderer
  Bytes orderer_sig;   ///< DER over the block-signing digest
  std::vector<std::uint8_t> tx_flags;  ///< TxValidationCode per transaction

  friend bool operator==(const BlockMetadata&, const BlockMetadata&) = default;
};

struct Block {
  BlockHeader header;
  std::vector<Bytes> envelopes;  ///< marshaled transaction envelopes
  BlockMetadata metadata;

  std::size_t tx_count() const { return envelopes.size(); }

  /// Replace metadata.tx_flags with one code per transaction. A delivered
  /// block's flags field is outside the orderer's signature and may have
  /// any length, so committers rebuild it whole, as Fabric's committer
  /// rebuilds TRANSACTIONS_FILTER. `codes` holds tx_count() entries.
  void set_tx_flags(const std::vector<TxValidationCode>& codes);

  /// Hash over the concatenated envelopes (header.data_hash must match).
  crypto::Digest compute_data_hash() const;

  /// Hash of the marshaled header — the chain link (prev_hash of block n+1).
  crypto::Digest block_hash() const;

  /// What the orderer signs (and block_verify checks).
  crypto::Digest signing_digest() const;

  /// Hands the marshaled bytes to `sink` in order, piece by piece: short
  /// tag/length runs and views of the envelopes, the orderer cert, the
  /// orderer signature and the flags. The pieces concatenate to marshal().
  void marshal_to(const std::function<void(ByteView)>& sink) const;
  Bytes marshal() const;
  static std::optional<Block> unmarshal(ByteView data);

  /// Total marshaled size — the Gossip-protocol transmission size that
  /// Fig. 6a compares against the BMac protocol. Summed from the field
  /// lengths; nothing is marshaled.
  std::size_t marshaled_size() const;
};

}  // namespace bm::fabric
