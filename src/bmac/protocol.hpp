// BMac protocol: software sender and hardware-receiver (protocol_processor)
// functional logic (§3.2).
//
// Sender (Fig. 3a): a block is split into sections (header / one per tx /
// metadata). For each section the DataRemover replaces every identity
// certificate with its 16-bit encoded id (emitting identity-sync packets
// for ids the hardware has not seen), and the AnnotationGenerator records
// pointer annotations — offset/length of the data fields the accelerator
// needs, expressed in the ORIGINAL section bytes — plus one locator
// annotation per removed identity, expressed in the modified payload.
//
// Receiver (Fig. 3b): the PacketProcessor parses the L7 header; the
// DataInserter splices cached certificates back to recover the exact
// original section bytes; the DataExtractor / DataProcessor /
// HashCalculator turn annotations into verification requests (DER -> (r,s),
// X.509 -> public key, SHA-256 over annotated ranges) and rwset entries;
// the DataWriter emits the FIFO records of records.hpp in order.
#pragma once

#include <deque>

#include "bmac/identity_cache.hpp"
#include "bmac/packet.hpp"
#include "bmac/records.hpp"
#include "fabric/block.hpp"

namespace bm::bmac {

/// Locator index conventions (Annotation::index for kLocator).
constexpr std::uint8_t kCreatorLocator = 255;
constexpr std::uint8_t kOrdererLocator = 254;

struct SendResult {
  std::vector<BmacPacket> packets;  ///< identity syncs interleaved in order
  std::size_t gossip_size = 0;      ///< marshaled block size (Gossip baseline)
  std::size_t bmac_size = 0;        ///< total BMac wire bytes (L7 level)
  std::size_t identities_removed = 0;
  std::size_t identity_bytes_removed = 0;
};

class ProtocolSender {
 public:
  explicit ProtocolSender(const fabric::Msp& msp) : cache_(msp) {}

  /// Break a block into BMac packets. Orderer integration calls this right
  /// before the block goes out through Gossip (§3.5).
  SendResult send(const fabric::Block& block);

  const SenderIdentityCache& cache() const { return cache_; }

 private:
  SenderIdentityCache cache_;
};

/// Functional model of the protocol_processor pipeline. Packets are fed in
/// arrival order; completed records come out in DataWriter order. The DES
/// wrapper (hw_protocol_processor) adds timing around this logic.
class ProtocolReceiver {
 public:
  /// `batched_endorsements` caps how many of each transaction's
  /// endorsements join the block's VerifyBatch: the engines' first round
  /// when the ends_scheduler short-circuits, so the batch holds only
  /// signatures the engines will run. Later ones are verified alone if an
  /// engine asks.
  explicit ProtocolReceiver(
      HwIdentityCache& cache,
      std::size_t batched_endorsements = static_cast<std::size_t>(-1))
      : cache_(cache), batched_endorsements_(batched_endorsements) {}

  /// Records emitted by one packet, in DataWriter push order.
  struct Emitted {
    std::optional<BlockEntry> block;
    std::vector<TxEntry> txs;
    std::vector<EndsEntry> ends;
    std::vector<RdsetEntry> reads;
    std::vector<WrsetEntry> writes;
    bool error = false;  ///< malformed packet (dropped, like hardware would)
  };

  Emitted on_packet(const BmacPacket& packet);

  /// Forget a block whose stream was abandoned; its VerifyBatch goes with
  /// the last record that holds it, unverified.
  void discard(std::uint64_t block_num) { pending_.erase(block_num); }

  /// DataInserter: reconstruct the original section bytes from a modified
  /// payload and its locator annotations. Exposed for the round-trip
  /// property tests.
  static std::optional<Bytes> reconstruct_section(
      const BmacPacket& packet, const HwIdentityCache& cache);

 private:
  struct PendingBlock {
    std::uint32_t tx_count = 0;
    bool have_header = false;
    Bytes header_bytes;
    std::shared_ptr<VerifyBatch> batch = std::make_shared<VerifyBatch>();
  };

  HwIdentityCache& cache_;
  std::size_t batched_endorsements_;
  std::map<std::uint64_t, PendingBlock> pending_;
};

}  // namespace bm::bmac
