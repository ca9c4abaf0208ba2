// In-hardware versioned key-value store (§3.3), with the optional
// host-backed tier proposed in §5.
//
// Base mode: fixed capacity (8192 entries in the paper's configuration —
// limited by FPGA BRAM/URAM) of versioned values {value, (block, tx)}. The
// mvcc stage checks read-set versions (version_matches); the commit stage
// writes valid transactions' write sets (write, or write_batch for the
// degraded path's write-through).
//
// Tiered mode (§5: "use in-hardware database for small amount of actively
// accessed data, while keeping a persistent database on the host CPU"):
// attach_host_store() turns the on-chip table into an LRU cache, and
// capacity overflow evicts the least-recently-used entry to the host store.
// A version check on a host-resident key is served from the host, and the
// key stays there; a write lands on-chip and replaces the host copy. Every
// access reports which tier served it so the pipeline model can charge the
// PCIe round trip for host accesses.
#pragma once

#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "fabric/statedb.hpp"

namespace bm::bmac {

/// Which tier served the last access (timing differs by ~an order of
/// magnitude: BRAM lookup vs PCIe round trip).
enum class AccessTier { kHardware, kHost };

class HwKvStore {
 public:
  explicit HwKvStore(std::size_t capacity) : capacity_(capacity) {}

  /// Write a key (insert or update). Without a host store, returns false
  /// when the table is full; with one, evicts the LRU entry to the host.
  bool write(const std::string& key, Bytes value, fabric::Version version);

  /// One element of a grouped write-through burst.
  struct BatchWrite {
    std::string key;
    Bytes value;
    fabric::Version version;
  };

  /// Apply a whole block's write-set in one pass, in order — the host
  /// write-through burst used by the degraded path (one PCIe transaction
  /// instead of per-key doorbells). Returns the number of writes applied;
  /// a write refused for overflow does not stop the rest of the burst.
  std::size_t write_batch(std::vector<BatchWrite>&& writes);

  /// Version check used by the mvcc stage.
  bool version_matches(const std::string& key,
                       const std::optional<fabric::Version>& expected);

  /// The key's value and version in whichever tier holds it, or nullopt.
  /// Touches no counter, LRU position or tier (tests compare state with it).
  std::optional<fabric::VersionedValue> lookup(const std::string& key) const;

  /// §5: attach the host CPU's persistent database as the backing tier.
  void attach_host_store(fabric::StateDb* host) { host_ = host; }
  bool has_host_store() const { return host_ != nullptr; }

  /// Tier that served the most recent write/version_matches call.
  AccessTier last_tier() const { return last_tier_; }

  // Counter accessors follow the repo-wide bounded-cache vocabulary
  // (capacity / entries / hits / misses / evictions, docs/OBSERVABILITY.md):
  // a hit is an access the on-chip tier served, a miss one that fell
  // through to the host.
  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return reads_ + writes_ - host_accesses_; }
  std::uint64_t misses() const { return host_accesses_; }
  std::uint64_t overflows() const { return overflows_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t host_accesses() const { return host_accesses_; }
  std::uint64_t total_reads() const { return reads_; }
  std::uint64_t total_writes() const { return writes_; }

 private:
  struct Entry {
    fabric::VersionedValue value;
    std::list<std::string>::iterator lru;
  };

  void touch(Entry& entry);
  /// Insert into the on-chip table, evicting to the host if needed.
  /// Returns false on overflow without a host store.
  bool insert_on_chip(const std::string& key, fabric::VersionedValue value);

  std::size_t capacity_;
  std::unordered_map<std::string, Entry> data_;
  std::list<std::string> lru_;  ///< front = most recently used
  fabric::StateDb* host_ = nullptr;

  AccessTier last_tier_ = AccessTier::kHardware;
  std::uint64_t overflows_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t host_accesses_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace bm::bmac
