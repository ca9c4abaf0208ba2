#include "fabric/ledger.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hex.hpp"
#include "fabric/statedb.hpp"
#include "fabric/transaction.hpp"

namespace bm::fabric {

namespace {

/// Commit hash of the block at `height`, or null when the ledger has none:
/// the tail hash also covers a seeded ledger that holds no block yet.
const crypto::Digest* commit_hash_at(const Ledger& ledger,
                                     std::uint64_t height) {
  if (height + 1 == ledger.height()) return &ledger.last_commit_hash();
  if (height >= ledger.base_height() && height < ledger.height())
    return &ledger.at(height).commit_hash;
  return nullptr;
}

}  // namespace

crypto::Digest chain_commit_hash(ByteView prev_commit,
                                 ByteView marshaled_block) {
  crypto::Sha256 h;
  h.update(prev_commit);
  h.update(marshaled_block);
  return h.finish();
}

crypto::Digest chain_commit_hash(ByteView prev_commit, const Block& block) {
  crypto::Sha256 h;
  h.update(prev_commit);
  block.marshal_to([&h](ByteView piece) { h.update(piece); });
  return h.finish();
}

bool for_each_valid_write(
    const Block& block,
    const std::function<void(std::string key, Bytes value, Version version)>&
        write) {
  if (block.metadata.tx_flags.size() != block.tx_count()) return false;
  bool parsed_all = true;
  for (std::size_t i = 0; i < block.tx_count(); ++i) {
    if (block.metadata.tx_flags[i] !=
        static_cast<std::uint8_t>(TxValidationCode::kValid))
      continue;
    auto tx = parse_envelope(block.envelopes[i]);
    if (!tx) {
      parsed_all = false;
      continue;
    }
    const Version version{block.header.number, static_cast<std::uint32_t>(i)};
    for (KVWrite& kv : tx->rwset.writes)
      write(StateDb::namespaced(tx->chaincode_id, kv.key), std::move(kv.value),
            version);
  }
  return parsed_all;
}

crypto::Digest Ledger::append(Block block) {
  if (block.header.number != height())
    throw std::invalid_argument("ledger: non-sequential block number");
  if (height() > 0) {
    if (!equal(block.header.prev_hash, crypto::digest_view(last_header_hash_)))
      throw std::invalid_argument("ledger: prev_hash mismatch");
  }
  if (block.metadata.tx_flags.size() != block.envelopes.size())
    throw std::invalid_argument("ledger: tx_flags not filled in");

  bytes_written_ += block.marshaled_size();
  const crypto::Digest commit_hash =
      chain_commit_hash(crypto::digest_view(last_commit_hash_), block);

  last_header_hash_ = block.block_hash();
  blocks_.push_back(CommittedBlock{std::move(block), commit_hash});
  last_commit_hash_ = commit_hash;
  return commit_hash;
}

void Ledger::open_at(std::uint64_t height,
                     const crypto::Digest& last_commit_hash,
                     const crypto::Digest& last_header_hash) {
  if (base_height_ != 0 || !blocks_.empty())
    throw std::logic_error("ledger: open_at on a non-empty ledger");
  base_height_ = height;
  last_commit_hash_ = last_commit_hash;
  last_header_hash_ = last_header_hash;
}

const CommittedBlock& Ledger::at(std::uint64_t index) const {
  if (index < base_height_)
    throw std::out_of_range("ledger: block below the recovered base height");
  return blocks_.at(index - base_height_);
}

const CommittedBlock& Ledger::last() const {
  if (blocks_.empty()) throw std::out_of_range("ledger is empty");
  return blocks_.back();
}

std::string chain_divergence(const Ledger& peer, const Ledger& reference) {
  if (peer.height() == 0) return "";
  for (std::uint64_t h = std::min(peer.base_height(), peer.height() - 1);
       h < peer.height(); ++h) {
    const crypto::Digest& got = *commit_hash_at(peer, h);
    const crypto::Digest* want = commit_hash_at(reference, h);
    if (want != nullptr && *want == got) continue;
    return "height " + std::to_string(h) + ": " +
           hex_encode(crypto::digest_view(got)) + " != " +
           (want != nullptr ? hex_encode(crypto::digest_view(*want))
                            : std::string("none"));
  }
  return "";
}

}  // namespace bm::fabric
