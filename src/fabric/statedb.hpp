// Versioned key-value state database (LevelDB-style world state).
//
// Values carry the (block, tx) version assigned at commit; mvcc validation
// compares a transaction's read-set versions against these. A separate
// history index records which blocks/transactions touched each key (the
// "miscellaneous" step 5 of the validation pipeline, §2.2).
//
// The store is sharded by key hash: each of N shards owns a disjoint map
// guarded by its own lock, so batched commits can apply one block's whole
// write-set with one lock acquisition per touched shard — and, when the
// caller supplies a thread pool, apply the shards in parallel. Shards are
// an implementation detail: keys are never enumerated, so every observable
// result (get/put/version_matches and the commit-hash chain built on them)
// is byte-identical at any shard count, with or without a pool.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/rwset.hpp"

namespace bm {
class ThreadPool;
namespace obs {
class Registry;
}  // namespace obs
}  // namespace bm

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
  static constexpr std::size_t kDefaultShards = 8;

  explicit StateDb(std::size_t shard_count = kDefaultShards);

  // Shards hold mutexes; the store is identity, not value.
  StateDb(const StateDb&) = delete;
  StateDb& operator=(const StateDb&) = delete;

  /// Current value+version, or nullopt if the key was never written.
  std::optional<VersionedValue> get(const std::string& key) const;

  /// Write (insert or overwrite) with an explicit version.
  void put(const std::string& key, Bytes value, Version version);

  /// Remove a key (used by the tiered hardware cache when promoting an
  /// entry back on-chip). No-op if absent.
  void erase(const std::string& key);

  /// True iff a read-set entry's expected version matches current state.
  bool version_matches(const KVRead& read) const;

  std::size_t size() const;
  void clear();

  // --- batched commit -------------------------------------------------------
  /// A block's write-set, pre-grouped by destination shard. Build with
  /// make_batch() (which sizes the groups to this store's shard count), add
  /// writes in transaction order, then hand it to commit_batch(). Within a
  /// shard, insertion order is preserved, so a key written by two
  /// transactions of one block ends at the later value — identical to the
  /// equivalent sequence of put() calls.
  class WriteBatch {
   public:
    void add(std::string key, Bytes value, Version version);
    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }

   private:
    friend class StateDb;
    struct Write {
      std::string key;
      Bytes value;
      Version version;
    };
    explicit WriteBatch(std::size_t shard_count) : per_shard_(shard_count) {}

    std::vector<std::vector<Write>> per_shard_;
    std::size_t total_ = 0;
  };

  WriteBatch make_batch() const { return WriteBatch(shards_.size()); }

  /// Apply a whole batch: one version-stamped grouped pass per touched
  /// shard, each under a single lock acquisition. With a pool, shards are
  /// applied in parallel (they are disjoint, so the final state is
  /// schedule-independent); without one, in shard order.
  void commit_batch(WriteBatch&& batch, ThreadPool* pool = nullptr);

  // --- snapshots ------------------------------------------------------------
  /// Write a versioned snapshot file: a CRC-framed header (format version,
  /// chain position, shard count, key count) followed by one CRC-framed
  /// key/value/version dump per non-empty shard — the same framing as the
  /// block log, so torn or corrupt snapshots are detected, not trusted.
  /// Written to "<path>.tmp" and renamed, so a crash mid-cut never leaves a
  /// half snapshot under the real name. Returns false on I/O failure.
  bool snapshot(const std::string& path, const StateSnapshotMeta& meta) const;

  /// Replace this store's contents from a snapshot file. Returns the chain
  /// position it was cut at, or nullopt if the file is missing, torn or
  /// corrupt (the store is left cleared — fall back to full replay).
  /// Entries re-route by key hash, so the shard count may differ from the
  /// writer's.
  std::optional<StateSnapshotMeta> restore(const std::string& path);

  /// Namespacing helper: Fabric stores keys as "<chaincode>\x00<key>".
  static std::string namespaced(const std::string& chaincode,
                                const std::string& key);

  /// Shard index for a key (exposed for tests and contention metrics).
  std::size_t shard_of(const std::string& key) const;
  std::size_t shard_count() const { return shards_.size(); }

  // Access statistics (feed the timing models).
  std::uint64_t total_reads() const;
  std::uint64_t total_writes() const;
  std::uint64_t batch_commits() const { return batch_commits_; }
  /// Lock acquisitions made by commit_batch (== touched shards, summed).
  std::uint64_t batch_shard_grabs() const { return batch_shard_grabs_; }

  /// Publish size/reads/writes plus per-shard keyspace balance under
  /// "<prefix>_..." (snapshot-style, idempotent).
  void publish_metrics(obs::Registry& registry, const std::string& prefix) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, VersionedValue> data;
    mutable std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t batch_commits_ = 0;
  std::uint64_t batch_shard_grabs_ = 0;
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
