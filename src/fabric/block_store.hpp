// Disk-based block store: the persistent half of the ledger (validation
// step 4 writes "the entire block to the ledger with its transactions'
// valid/invalid flags and a commit hash", §2.2).
//
// Append-only file of framed records:
//   magic(4) | payload_len(4, LE) | crc32(4, LE) | payload
// where the payload is commit_hash(32) || marshaled flagged block. Recovery
// scans forward one record at a time (bounded memory, never the whole file)
// and stops at the first torn/corrupt record, so a crash mid-append loses at
// most the unfinished block — standard write-ahead semantics.
//
// Opening the store for writing is crash-safe: the constructor replays the
// same scan, *truncates* the torn tail off the file and seeds the chain head
// (height + tail commit hash) from what survived. Every append must extend
// that head — an append whose commit hash does not chain onto the recovered
// tail is rejected — so a reopened store can never bury fresh blocks behind
// an inconsistency where recover() would stop and silently lose them.
#pragma once

#include <string>

#include "fabric/ledger.hpp"
#include "fabric/statedb.hpp"

namespace bm {
namespace obs {
class Registry;
}  // namespace obs
}  // namespace bm

namespace bm::fabric {

class FileBlockStore {
 public:
  /// Largest payload a well-formed record may carry. A length field beyond
  /// this is treated as corruption (the scan stops there) instead of an
  /// attempt to allocate whatever a torn header happens to spell.
  static constexpr std::uint32_t kMaxPayload = 64u << 20;  // 64 MiB

  /// Opens (or creates) the store for appending. An existing file is
  /// scanned first: the valid prefix seeds height()/tail_commit_hash() and
  /// any torn tail is truncated away, so appends continue the chain.
  explicit FileBlockStore(std::string path);
  ~FileBlockStore();
  FileBlockStore(const FileBlockStore&) = delete;
  FileBlockStore& operator=(const FileBlockStore&) = delete;

  /// Append one committed block; flushes to the OS before returning.
  /// Throws std::invalid_argument, writing nothing, unless the block extends
  /// the tail — its number must equal height() and its commit hash must
  /// equal H(tail_commit_hash || marshaled block) — and its record (commit
  /// hash + marshaled block) fits in kMaxPayload bytes.
  void append(const CommittedBlock& block);

  /// fsync the file to stable storage (fflush only reaches the OS cache).
  void sync();

  const std::string& path() const { return path_; }
  /// Blocks in the file: recovered-at-open plus appended since.
  std::uint64_t height() const { return height_; }
  /// Appends made through this handle (excludes the recovered prefix).
  std::uint64_t blocks_written() const { return blocks_written_; }
  const crypto::Digest& tail_commit_hash() const { return tail_commit_hash_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t fsyncs() const { return fsyncs_; }
  /// Torn/corrupt bytes the constructor truncated off the reopened file.
  std::uint64_t truncated_bytes() const { return truncated_bytes_; }

  struct RecoveredChain {
    std::vector<CommittedBlock> blocks;
    /// Height of blocks.front() — 0 for a full scan, the snapshot height
    /// when recover_from() skipped a prefix.
    std::uint64_t first_height = 0;
    std::uint64_t torn_bytes = 0;  ///< trailing bytes discarded by recovery
    /// Byte offset of each recovered record's frame header, plus one final
    /// entry for the end of the valid prefix (crash-point arithmetic).
    std::vector<std::uint64_t> record_offsets;
  };

  /// Scan a store file, returning every intact block in order. Verifies the
  /// CRC and the commit-hash chain; stops at the first inconsistency (torn
  /// tail after a crash).
  static RecoveredChain recover(const std::string& path);

  /// Snapshot-assisted scan: records below `first_height` are skipped with a
  /// framing-only check (magic + length sanity, no CRC / unmarshal / hash),
  /// then the chain is verified from `first_height` on, seeded with the
  /// snapshot's tail commit hash. This is what makes snapshot recovery
  /// cheaper than full replay: the skipped prefix costs a seek per record.
  static RecoveredChain recover_from(const std::string& path,
                                     std::uint64_t first_height,
                                     const crypto::Digest& prev_commit);

  /// Counters under "<prefix>_..." (snapshot-style, idempotent).
  void publish_metrics(obs::Registry& registry, const std::string& prefix) const;

 private:
  std::string path_;
  void* file_ = nullptr;  // FILE*, kept out of the header
  std::uint64_t height_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  crypto::Digest tail_commit_hash_{};  // zero for the empty chain
};

/// Rebuild an in-memory Ledger (and optionally replay world state) from a
/// recovered chain. The ledger must already stand at chain.first_height
/// (Ledger::open_at for a snapshot-seeded replay; empty for a full one).
/// World state is applied through StateDb::WriteBatch/commit_batch — the
/// same batched path live commits take. Returns false if the chain fails
/// re-validation.
bool replay_chain(const FileBlockStore::RecoveredChain& chain, Ledger& ledger,
                  StateDb* state = nullptr);

}  // namespace bm::fabric
