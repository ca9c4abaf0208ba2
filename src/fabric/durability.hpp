// The durable-ledger subsystem (ROADMAP item 2, docs/DURABILITY.md):
// append-only block log + periodic StateDb snapshots + crash recovery.
//
// A DurableLedger sits beside a commit pipeline: every committed block is
// appended to the CRC-framed block log (FileBlockStore), and every
// `snapshot_interval` blocks the world state is dumped to a versioned
// snapshot file next to it. Recovery is then snapshot + replay-from-height:
// restore the newest intact snapshot, seed the ledger at its chain position
// and replay only the log records past it — instead of re-applying the
// whole chain. The §4.1 divergence check (commit-hash equality) is the
// recovery oracle: a recovered peer must reproduce the reference commit
// hash byte for byte.
#pragma once

#include <memory>
#include <string>

#include "fabric/block_store.hpp"

namespace bm {
namespace obs {
class Registry;
}  // namespace obs
}  // namespace bm

namespace bm::fabric {

struct DurabilityConfig {
  /// Block-log file path; empty disables durability entirely.
  std::string ledger_path;
  /// Cut a StateDb snapshot every this many committed blocks (0 = never).
  /// Snapshots land next to the log as "<ledger_path>.snap.<height>".
  std::uint64_t snapshot_interval = 0;
  /// Snapshot files kept on disk (older ones are pruned after each cut).
  std::size_t keep_snapshots = 2;
  /// fsync the log after every append (otherwise data reaches the OS cache
  /// on each append and stable storage only at sync points).
  bool fsync_each_block = false;

  bool enabled() const { return !ledger_path.empty(); }
};

struct RecoveryResult {
  bool ok = false;
  std::uint64_t height = 0;           ///< chain height after recovery
  std::uint64_t blocks_replayed = 0;  ///< log records re-applied
  bool used_snapshot = false;
  std::uint64_t snapshot_height = 0;  ///< when used_snapshot
  std::uint64_t torn_bytes = 0;       ///< bytes discarded at the log tail
  /// Snapshot file plus the log records replayed past it (the whole valid
  /// log on a full replay): what a peer catching up from these files ships.
  std::uint64_t bytes_read = 0;
  double duration_s = 0;              ///< wall clock, whole recovery
  std::string error;                  ///< when !ok
};

/// Owns the block log (safe reopen included) and the snapshot schedule.
class DurableLedger {
 public:
  /// Opens (or creates) the log at config.ledger_path, truncating any torn
  /// tail. Requires config.enabled().
  explicit DurableLedger(DurabilityConfig config);

  /// Persist the ledger's newest block; cut + prune snapshots on schedule.
  /// Call once after every successful commit. Idempotent across restarts:
  /// a commit whose block is already durable (number below the log height,
  /// e.g. a restarted peer replaying from genesis) is skipped.
  void on_commit(const Ledger& ledger, const StateDb& state);

  /// Cut a StateDb snapshot at the ledger's tip, which must be the log's
  /// tip, then prune to keep_snapshots. on_commit cuts on schedule; a donor
  /// that never cut one cuts one before a lagging peer recovers from its
  /// files. Returns false, cutting nothing, on I/O failure or when the tips
  /// differ.
  bool cut_snapshot(const Ledger& ledger, const StateDb& state);

  /// Force the log to stable storage.
  void sync() { store_.sync(); }

  const DurabilityConfig& config() const { return config_; }
  const FileBlockStore& store() const { return store_; }
  std::uint64_t last_snapshot_height() const { return last_snapshot_height_; }
  /// Blocks committed since the newest snapshot (== replay cost of a crash
  /// right now).
  std::uint64_t snapshot_age_blocks() const {
    return store_.height() - last_snapshot_height_;
  }
  std::uint64_t snapshots_cut() const { return snapshots_cut_; }

  /// Rebuild ledger + state from disk: restore the newest intact snapshot
  /// (trying older ones if it is corrupt), then replay the log past it;
  /// with no usable snapshot, replay the whole log. `ledger` and `state`
  /// must be empty. The same call serves crash recovery and a lagging
  /// cluster peer catching up from a donor's files.
  static RecoveryResult recover(const DurabilityConfig& config, Ledger& ledger,
                                StateDb& state);

  /// Delete the log and every "<ledger_path>.snap.*" file next to it, for
  /// a run that must start from an empty chain. Missing files are fine.
  static void remove_files(const DurabilityConfig& config);

  /// Snapshot file name for a cut at `height`.
  static std::string snapshot_path(const DurabilityConfig& config,
                                   std::uint64_t height);

  /// Log/snapshot counters and gauges under "<prefix>_..." (idempotent).
  void publish_metrics(obs::Registry& registry, const std::string& prefix) const;

  /// Publish one recovery's outcome (replay size, snapshot use, torn bytes;
  /// no wall-clock time, so the same recovery publishes the same values).
  static void publish_recovery_metrics(obs::Registry& registry,
                                       const std::string& prefix,
                                       const RecoveryResult& result);

 private:
  DurabilityConfig config_;
  FileBlockStore store_;
  std::uint64_t last_snapshot_height_ = 0;
  std::uint64_t snapshots_cut_ = 0;
};

}  // namespace bm::fabric
