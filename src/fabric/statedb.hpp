// Versioned key-value state database (LevelDB-style world state).
//
// Values carry the (block, tx) version assigned at commit; mvcc validation
// compares a transaction's read-set versions against these. A separate
// history index records which blocks/transactions touched each key (the
// "miscellaneous" step 5 of the validation pipeline, §2.2).
//
// One ordered map, touched only by the committing thread. As in the
// paper's tx_mvcc_commit (§3.3) and Fabric's committer, a block's
// write-set lands in one in-order pass after mvcc has decided it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fabric/rwset.hpp"

namespace bm::obs {
class Registry;
}  // namespace bm::obs

namespace bm::fabric {

struct VersionedValue {
  Bytes value;
  Version version;

  friend bool operator==(const VersionedValue&, const VersionedValue&) = default;
};

/// Chain position a StateDb snapshot was cut at: recovery restores the
/// snapshot, seeds the ledger here (Ledger::open_at) and replays only the
/// blocks past it.
struct StateSnapshotMeta {
  std::uint64_t height = 0;  ///< blocks committed when the snapshot was cut
  Bytes commit_hash;         ///< ledger commit-hash chain tail (32 bytes)
  Bytes header_hash;         ///< block_hash of the last committed block
};

class StateDb {
 public:
  StateDb() = default;

  // The store is identity, not value: a ledger's state lives in one place.
  StateDb(const StateDb&) = delete;
  StateDb& operator=(const StateDb&) = delete;

  /// Current value+version, or nullopt if the key was never written.
  std::optional<VersionedValue> get(const std::string& key) const;

  /// Write (insert or overwrite) with an explicit version.
  void put(const std::string& key, Bytes value, Version version);

  /// Remove a key (used by the tiered hardware cache when a write replaces
  /// a host-resident copy). No-op if absent.
  void erase(const std::string& key);

  /// True iff a read-set entry's expected version matches current state.
  bool version_matches(const KVRead& read) const;

  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }

  // --- batched commit -------------------------------------------------------
  /// A block's write-set in transaction order. Build with make_batch(), add
  /// writes in transaction order, then hand it to commit_batch(), which
  /// applies them in that order: a key written by two transactions of one
  /// block ends at the later value, exactly as the equivalent put() calls.
  class WriteBatch {
   public:
    void add(std::string key, Bytes value, Version version);
    std::size_t size() const { return writes_.size(); }
    bool empty() const { return writes_.empty(); }

   private:
    friend class StateDb;
    struct Write {
      std::string key;
      Bytes value;
      Version version;
    };
    WriteBatch() = default;

    std::vector<Write> writes_;
  };

  WriteBatch make_batch() const { return WriteBatch(); }

  /// Apply a whole batch in order, counted as one batched commit.
  void commit_batch(WriteBatch&& batch);

  // --- snapshots ------------------------------------------------------------
  /// Write a versioned snapshot file: a CRC-framed header (format version,
  /// chain position, bucket count, frame count, key count) followed by one
  /// CRC-framed key/value/version dump per non-empty key-hash bucket — the
  /// same framing as the block log, so torn or corrupt snapshots are
  /// detected, not trusted. Written to "<path>.tmp" and renamed, so a crash
  /// mid-cut never leaves a half snapshot under the real name. Returns false
  /// on I/O failure.
  bool snapshot(const std::string& path, const StateSnapshotMeta& meta) const;

  /// Replace this store's contents from a snapshot file. Returns the chain
  /// position it was cut at, or nullopt if the file is missing, torn or
  /// corrupt (the store is left cleared — fall back to full replay).
  std::optional<StateSnapshotMeta> restore(const std::string& path);

  /// Namespacing helper: Fabric stores keys as "<chaincode>\x00<key>".
  static std::string namespaced(const std::string& chaincode,
                                const std::string& key);

  /// Publish size/reads/writes/batch commits under "<prefix>_..."
  /// (snapshot-style, idempotent). These feed the timing models.
  void publish_metrics(obs::Registry& registry, const std::string& prefix) const;

 private:
  std::map<std::string, VersionedValue> data_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t batch_commits_ = 0;
};

/// History database: key -> list of (block, tx) that wrote it.
class HistoryDb {
 public:
  void record(const std::string& key, Version version);
  const std::vector<Version>* history(const std::string& key) const;
  std::size_t key_count() const { return data_.size(); }

 private:
  std::map<std::string, std::vector<Version>> data_;
};

}  // namespace bm::fabric
