// Per-key fixed-base comb tables behind crypto::verify.
//
// Endorser populations are small and stable: the same few public keys sign
// the overwhelming majority of endorsements a committing peer ever checks.
// Agrawal et al.'s FPGA ECDSA verification engine wins by amortizing
// per-public-key precomputation across many verifies, and the BMac identity
// cache keeps each sender identity once for every ecdsa_engine check; this
// is the software mirror of both. crypto::verify asks the process-wide
// cache for the key's Lim–Lee comb table after its range and curve checks
// pass. A key's first sight gets no table: the verify runs the generic
// joint-wNAF multiply and the key enters a bounded seen-once set. Its
// second sight builds the table (one-time work worth ~5-6 generic
// verifies, ~64 KiB), and every later verification runs the u1*G + u2*Q
// combine as eight comb lookups per column (four blocks per table) on ONE
// shared 7-doubling chain — ~5x cheaper than the generic walk. A stream of
// fresh keys therefore never builds a table or evicts a hot one. A
// crypto::verify batch asks for each item's table in item order, exactly
// as the items verified one by one would, and walks the tables of at least
// verify_batch_min() items in lockstep (crypto/p256.hpp's
// double_scalar_mult_comb_batch); below that crossover, which depends on
// the walk's kernel, each item runs its own comb walk.
//
// Correctness: the combine is algebraically the same sum, so verdicts are
// bit-identical on either path (differential-tested against the pre-rewrite
// reference verify). Tables hold only public multiples of a key, never
// verdicts, so sharing them across every validator of a process keeps each
// peer's verdicts independent. Thread-safe: tables are built outside the
// lock so parallel vscc workers verifying under distinct keys never
// serialize, and entries are handed out as shared_ptr so an eviction never
// invalidates an in-flight verify.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "crypto/ecdsa.hpp"
#include "crypto/lru_map.hpp"

namespace bm::crypto {

class CombCache {
 public:
  /// The process-wide budget: 64 tables x ~64 KiB = ~4 MiB, comfortably
  /// above any realistic endorser population (a few orgs x a few peers).
  static constexpr std::size_t kTables = 64;

  explicit CombCache(std::size_t max_tables = kTables);

  /// The cache crypto::verify uses.
  static CombCache& shared();

  /// The comb table for a key from its second sight on (built on that
  /// sight); null on a first sight, which enters the seen-once set. A key
  /// whose table was evicted starts over as a first sight. `key` must have
  /// passed the curve checks.
  std::shared_ptr<const PointCombTable> table_for(const PublicKey& key);

  struct Counters {
    std::uint64_t first_sights = 0;  ///< lookups answered with no table
    std::uint64_t builds = 0;        ///< tables built (second sights)
    std::uint64_t hits = 0;          ///< lookups answered by a held table
    std::uint64_t evictions = 0;     ///< tables dropped by the LRU bound
  };
  Counters counters() const;
  std::size_t size() const;  ///< tables held
  std::size_t capacity() const { return tables_.capacity(); }

  void clear();

 private:
  struct PointHash {
    std::size_t operator()(const AffinePoint& p) const;
  };

  mutable std::mutex mutex_;
  /// Both keyed by the key's point, which has passed the curve checks.
  LruMap<AffinePoint, std::shared_ptr<const PointCombTable>, PointHash>
      tables_;
  LruMap<AffinePoint, bool, PointHash> seen_once_;
  Counters counters_;
};

}  // namespace bm::crypto
