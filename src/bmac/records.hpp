// Hardware FIFO record types (the entries of block_fifo, tx_fifo, ends_fifo,
// rdset_fifo, wrset_fifo and res_fifo — §3.1/§3.3).
//
// The protocol_processor writes these records as packets arrive; the
// block_processor consumes them. Verification requests carry the exact
// {signature, key, data hash} tuple the paper's ecdsa_engine takes. The
// functional model gets each engine verdict from the block's VerifyBatch,
// which verifies the block's creators, then its endorsements, in one
// crypto::verify span each; for synthetic benchmark workloads the verdict
// can be precomputed (`precomputed`). Either way only the wall-clock cost
// of the host running the simulation changes, never simulated behaviour.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "crypto/ecdsa.hpp"
#include "fabric/block.hpp"
#include "fabric/identity.hpp"
#include "fabric/rwset.hpp"
#include "sim/simulation.hpp"

namespace bm::bmac {

/// One block's creator and endorsement signatures, registered by the
/// ProtocolReceiver and verified in SoftwareValidator's two spans on first
/// use: every registered creator, then every registered endorsement of a
/// parsed transaction whose creator passed. When the ends_scheduler
/// short-circuits, the receiver registers only each transaction's first
/// round of endorsements; a later round's request has no batch and is
/// verified alone. A slot its span did not cover (registered after the
/// span ran) is verified alone when asked. Nothing is verified before an
/// engine asks, so a discarded stream costs none. Single-threaded, like the
/// DES.
class VerifyBatch {
 public:
  enum class Kind : std::uint8_t { kCreator, kEndorsement };

  /// Register one well-formed request; returns its slot.
  std::size_t add(Kind kind, std::uint32_t tx, bool parse_ok,
                  const crypto::VerifyItem& item);
  bool verdict(std::size_t slot);

 private:
  struct Entry {
    crypto::VerifyItem item;
    Kind kind;
    std::uint32_t tx;
    bool parse_ok;
    std::optional<bool> ok;
  };
  void resolve(Kind kind);

  std::vector<Entry> entries_;
  bool resolved_[2] = {false, false};  ///< by Kind
};

struct VerifyRequest {
  // NOTE: FIFO payload types declare a defaulted constructor so they are
  // not aggregates — GCC 12's coroutine support miscompiles aggregate
  // temporaries inside co_await expressions (see sim/fifo.hpp).
  VerifyRequest() = default;

  crypto::Signature signature;
  crypto::PublicKey key;
  crypto::Digest digest{};
  /// When set, the engine model returns this instead of running the real
  /// ECDSA math (synthetic workloads); simulated latency is identical.
  std::optional<bool> precomputed;
  /// Malformed DER / missing key: the engine rejects without doing math.
  bool well_formed = true;
  /// The block's batch and this request's slot in it; without one (the
  /// block signature) the request is verified alone.
  std::shared_ptr<VerifyBatch> batch;
  std::size_t slot = 0;

  bool execute() const {
    if (!well_formed) return false;
    if (precomputed) return *precomputed;
    if (batch) return batch->verdict(slot);
    return crypto::verify(key, digest, signature);
  }

  static VerifyRequest assumed(bool result) {
    VerifyRequest r;
    r.precomputed = result;
    return r;
  }
};

/// One entry per block in block_fifo.
struct BlockEntry {
  BlockEntry() = default;

  std::uint64_t block_num = 0;
  std::uint32_t tx_count = 0;
  VerifyRequest verify;  ///< orderer signature over the block digest
};

/// One entry per transaction in tx_fifo.
struct TxEntry {
  TxEntry() = default;

  std::uint64_t block_num = 0;
  std::uint32_t tx_seq = 0;
  std::string chaincode_id;
  VerifyRequest verify;  ///< creator signature over the payload digest
  std::uint16_t endorsement_count = 0;
  std::uint16_t read_count = 0;
  std::uint16_t write_count = 0;
  /// False when the structural fields (payload, signature, chaincode id,
  /// rwset) could not be located — maps to TxValidationCode::kBadPayload,
  /// matching the software validator's parse failure.
  bool parse_ok = true;
};

/// One entry per endorsement in ends_fifo.
struct EndsEntry {
  EndsEntry() = default;

  fabric::EncodedId endorser;
  VerifyRequest verify;  ///< endorser signature over the endorsement digest
};

/// One entry per read-set element in rdset_fifo.
struct RdsetEntry {
  RdsetEntry() = default;
  RdsetEntry(std::string k, std::optional<fabric::Version> v)
      : key(std::move(k)), expected_version(v) {}

  std::string key;  ///< namespaced key
  std::optional<fabric::Version> expected_version;
};

/// One entry per write-set element in wrset_fifo.
struct WrsetEntry {
  WrsetEntry() = default;
  WrsetEntry(std::string k, Bytes v) : key(std::move(k)), value(std::move(v)) {}

  std::string key;  ///< namespaced key
  Bytes value;
};

/// Per-block statistics gathered by block_monitor (reported through
/// reg_map; the paper's Caliper harness reads these instead of software
/// timestamps for the BMac peer — §4.1).
struct BlockStats {
  BlockStats() = default;

  sim::Time received_at = 0;     ///< block_fifo entry complete
  sim::Time verify_start = 0;
  sim::Time verify_end = 0;
  sim::Time validate_start = 0;  ///< block entered the block_validate stage
  sim::Time validate_end = 0;    ///< last tx through tx_mvcc_commit
  std::uint32_t ecdsa_executed = 0;   ///< verifications actually run
  std::uint32_t ecdsa_skipped = 0;    ///< dropped by short-circuit / skip
  sim::Time tx_latency_sum = 0;  ///< sum over txs of (vscc done - dispatch)
};

/// One entry per block in res_fifo / reg_map.
struct ResultEntry {
  ResultEntry() = default;

  std::uint64_t block_num = 0;
  bool block_valid = false;
  std::vector<fabric::TxValidationCode> flags;
  BlockStats stats;
  /// True when the hardware stream for this block stalled and the host
  /// computed the flags with the SoftwareValidator instead (graceful
  /// degradation; stats are zero on this path).
  bool fallback = false;
};

}  // namespace bm::bmac
