#include "fabric/block_store.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/crc32.hpp"
#include "fabric/statedb.hpp"
#include "obs/metrics.hpp"

namespace bm::fabric {

namespace {
constexpr std::uint32_t kMagic = 0x424D4C47;  // "BMLG"
constexpr std::size_t kHeaderSize = 12;       // magic + len + crc

/// One pass over a store file, one record at a time (memory bounded by the
/// largest single record, never the file). Records below `first_height` get
/// a framing-only check and an fseek past the payload; from there on every
/// record is CRC-checked, chain-checked against `seed` and (when `collect`)
/// unmarshaled. The scan stops at the first inconsistency.
struct ScanResult {
  std::uint64_t records = 0;    ///< verified records (skipped ones included)
  std::uint64_t valid_end = 0;  ///< byte offset after the last good record
  std::uint64_t file_size = 0;
  crypto::Digest tail{};  ///< commit hash of the last verified record
  std::vector<std::uint64_t> offsets;
  std::vector<CommittedBlock> blocks;  ///< when `collect`
};

ScanResult scan_store(const std::string& path, std::uint64_t first_height,
                      const crypto::Digest& seed, bool collect) {
  ScanResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return result;  // no file yet: empty chain

  std::fseek(f, 0, SEEK_END);
  result.file_size = static_cast<std::uint64_t>(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);

  std::uint64_t pos = 0;
  crypto::Digest prev_commit = first_height == 0 ? crypto::Digest{} : seed;
  Bytes payload;
  std::uint8_t header[kHeaderSize];
  while (pos + kHeaderSize <= result.file_size) {
    if (std::fread(header, 1, kHeaderSize, f) != kHeaderSize) break;
    if (get_u32le(header, 0) != kMagic) break;
    const std::uint32_t len = get_u32le(header, 4);
    const std::uint32_t crc = get_u32le(header, 8);
    // Validate the length *before* touching the payload: a commit hash alone
    // is 32 bytes, so any shorter length (or one past the sanity bound, or
    // past end-of-file) marks a torn or corrupt record.
    if (len < 32 || len > FileBlockStore::kMaxPayload) break;
    if (pos + kHeaderSize + len > result.file_size) break;  // torn tail

    if (result.records < first_height) {
      // Skipped prefix (covered by a snapshot): framing checks only.
      if (std::fseek(f, static_cast<long>(len), SEEK_CUR) != 0) break;
    } else {
      payload.resize(len);
      if (std::fread(payload.data(), 1, len, f) != len) break;
      if (crc32(payload) != crc) break;

      const crypto::Digest commit_hash = chain_commit_hash(
          crypto::digest_view(prev_commit), ByteView(payload).subspan(32));
      if (!std::equal(payload.begin(), payload.begin() + 32,
                      commit_hash.begin()))
        break;
      prev_commit = commit_hash;
      result.tail = commit_hash;

      if (collect) {
        auto block = Block::unmarshal(ByteView(payload).subspan(32));
        if (!block) break;
        CommittedBlock committed;
        committed.commit_hash = commit_hash;
        committed.block = std::move(*block);
        result.blocks.push_back(std::move(committed));
      }
      result.offsets.push_back(pos);
    }
    pos += kHeaderSize + len;
    result.records += 1;
    result.valid_end = pos;
  }
  std::fclose(f);
  result.offsets.push_back(result.valid_end);
  return result;
}

}  // namespace

FileBlockStore::FileBlockStore(std::string path) : path_(std::move(path)) {
  // Safe reopen: find the valid prefix, cut the torn tail off the file and
  // seed the chain head from what survived. Appending blindly after a crash
  // would park every new block beyond the first inconsistency, where
  // recover() (which stops there by design) could never reach it.
  const ScanResult scan =
      scan_store(path_, 0, crypto::Digest{}, /*collect=*/false);
  height_ = scan.records;
  tail_commit_hash_ = scan.tail;
  truncated_bytes_ = scan.file_size - scan.valid_end;
  if (truncated_bytes_ > 0)
    std::filesystem::resize_file(path_, scan.valid_end);

  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr)
    throw std::runtime_error("cannot open block store: " + path_);
  file_ = f;
}

FileBlockStore::~FileBlockStore() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void FileBlockStore::append(const CommittedBlock& block) {
  if (block.block.header.number != height_)
    throw std::invalid_argument(
        "block store: append of block " +
        std::to_string(block.block.header.number) + " at height " +
        std::to_string(height_));

  // One buffer holds the frame: the header, its CRC patched in last, then
  // the payload (commit hash || marshaled block). The checks run on it in
  // place and the frame goes out in one fwrite.
  const std::size_t payload_size = 32 + block.block.marshaled_size();
  // A record recovery would stop at must never reach the file: it would
  // orphan itself and every later append.
  if (payload_size > kMaxPayload)
    throw std::invalid_argument(
        "block store: block " + std::to_string(block.block.header.number) +
        " needs a " + std::to_string(payload_size) +
        "-byte record, over the " + std::to_string(kMaxPayload) +
        "-byte limit");
  Bytes frame;
  frame.reserve(kHeaderSize + payload_size);
  put_u32le(frame, kMagic);
  put_u32le(frame, static_cast<std::uint32_t>(payload_size));
  put_u32le(frame, 0);  // the CRC, once the payload is in place
  bm::append(frame, crypto::digest_view(block.commit_hash));
  block.block.marshal_to(
      [&frame](ByteView piece) { bm::append(frame, piece); });
  const ByteView payload = ByteView(frame).subspan(kHeaderSize);

  // The append must extend the recovered tail: its commit hash re-derives
  // from our chain head. Anything else would write a record recovery stops
  // in front of, silently orphaning all of its successors.
  if (chain_commit_hash(crypto::digest_view(tail_commit_hash_),
                        payload.subspan(32)) != block.commit_hash)
    throw std::invalid_argument(
        "block store: commit hash does not extend the stored chain at height " +
        std::to_string(height_));

  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i)
    frame[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));

  auto* f = static_cast<std::FILE*>(file_);
  if (std::fwrite(frame.data(), 1, frame.size(), f) != frame.size())
    throw std::runtime_error("block store write failed: " + path_);
  std::fflush(f);
  tail_commit_hash_ = block.commit_hash;
  height_ += 1;
  blocks_written_ += 1;
  bytes_written_ += frame.size();
}

void FileBlockStore::sync() {
  auto* f = static_cast<std::FILE*>(file_);
  std::fflush(f);
  ::fsync(fileno(f));
  fsyncs_ += 1;
}

FileBlockStore::RecoveredChain FileBlockStore::recover(
    const std::string& path) {
  return recover_from(path, 0, crypto::Digest{});
}

FileBlockStore::RecoveredChain FileBlockStore::recover_from(
    const std::string& path, std::uint64_t first_height,
    const crypto::Digest& prev_commit) {
  ScanResult scan = scan_store(path, first_height, prev_commit,
                               /*collect=*/true);
  RecoveredChain chain;
  chain.blocks = std::move(scan.blocks);
  chain.first_height = std::min(first_height, scan.records);
  chain.torn_bytes = scan.file_size - scan.valid_end;
  chain.record_offsets = std::move(scan.offsets);
  return chain;
}

void FileBlockStore::publish_metrics(obs::Registry& registry,
                                     const std::string& prefix) const {
  registry
      .counter(prefix + "_blocks_appended_total",
               "blocks appended through this store handle")
      .set(blocks_written_);
  registry
      .counter(prefix + "_bytes_written_total",
               "framed bytes appended to the block log")
      .set(bytes_written_);
  registry.counter(prefix + "_fsyncs_total", "fsync calls on the block log")
      .set(fsyncs_);
  registry.gauge(prefix + "_height", "blocks in the log file")
      .set(static_cast<double>(height_));
  registry
      .gauge(prefix + "_truncated_bytes",
             "torn bytes cut off the log when it was reopened")
      .set(static_cast<double>(truncated_bytes_));
}

bool replay_chain(const FileBlockStore::RecoveredChain& chain, Ledger& ledger,
                  StateDb* state) {
  if (ledger.height() != chain.first_height) return false;
  for (const CommittedBlock& committed : chain.blocks) {
    // The CRC and the hash chain only prove a record is the one that was
    // written, not that it is well formed: the ledger rejects a block
    // without one flag per envelope, the walk below one that does not parse.
    crypto::Digest recomputed;
    try {
      recomputed = ledger.append(committed.block);
    } catch (const std::invalid_argument&) {
      return false;  // numbering / prev_hash / flags broken
    }
    if (recomputed != committed.commit_hash) return false;

    if (state != nullptr) {
      // Same batched path live commits take: one grouped, version-stamped
      // apply per block, so replayed state carries the same batch
      // accounting as the original run.
      StateDb::WriteBatch batch = state->make_batch();
      if (!for_each_valid_write(committed.block,
                                [&batch](std::string key, Bytes value,
                                         Version version) {
                                  batch.add(std::move(key), std::move(value),
                                            version);
                                }))
        return false;
      state->commit_batch(std::move(batch));
    }
  }
  return true;
}

}  // namespace bm::fabric
