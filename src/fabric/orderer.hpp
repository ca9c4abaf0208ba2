// Ordering service: block cutting and signing.
//
// Models the (single lead) orderer of a Raft ordering service: it collects
// endorsed envelopes, cuts a block when the batch size is reached (or on
// explicit flush), computes the data hash, links prev_hash and signs the
// block. Consensus internals are out of scope (the paper's bottleneck is
// validation, not ordering); what matters here is producing byte-exact,
// correctly signed blocks for both the Gossip and BMac delivery paths.
#pragma once

#include "fabric/block.hpp"

namespace bm::fabric {

class Orderer {
 public:
  struct Config {
    std::size_t max_tx_per_block = 100;  ///< Fabric's BatchSize.MaxMessageCount
  };

  Orderer(Identity identity, Config config);

  /// Enqueue an endorsed envelope; returns a cut block when the batch fills.
  std::optional<Block> submit(Bytes envelope);

  /// Cut whatever is pending into a block (nullopt if nothing is pending).
  std::optional<Block> flush();

  /// Envelopes submitted since the last cut.
  std::size_t pending() const { return pending_.size(); }
  std::uint64_t next_block_number() const { return next_number_; }
  const Identity& identity() const { return identity_; }

 private:
  Block cut_block();

  Identity identity_;
  Config config_;
  std::vector<Bytes> pending_;
  std::uint64_t next_number_ = 0;
  Bytes prev_hash_;  // empty before the genesis block
};

}  // namespace bm::fabric
