// Memoizing ECDSA verification cache (the software mirror of the BMac
// identity cache's "parse once, reuse" semantics, applied to whole
// signature checks).
//
// Real Fabric workloads are dominated by repeated endorsement checks: the
// same endorser signs the same (chaincode, rwset) digest for many
// transactions — deterministic RFC 6979 signing then produces bit-identical
// signatures — and every committing peer re-runs the full double-scalar
// multiplication each time ("Performance Characterization and Bottleneck
// Analysis of Hyperledger Fabric" pins this as a dominant commit-path
// cost). The cache memoizes verify() outcomes keyed by the full triple
// (public key, digest, signature bytes), so a repeat costs one SHA-256 and
// a hash-table probe instead of ~100 us of point arithmetic.
//
// Correctness: the key commits to every input of the verification — a
// matching signature over a DIFFERENT digest, or the same digest under a
// different key, hashes to a different entry and misses. Both positive and
// negative outcomes are cached (a forged signature stays forged). Bounded
// LRU capacity; thread-safe so the parallel vscc workers of one validator
// can share it.
//
// Counts: every verify() call adds exactly one hit or one miss, so hits +
// misses always equals the number of calls. The split is exact only for
// sequential callers (a miss per distinct triple not yet held). The check
// on a miss runs outside the lock, so workers that meet the same new
// triple concurrently each count a miss — up to one per worker — before the
// first insert lands; verdicts are unaffected.
#pragma once

#include <cstdint>
#include <mutex>

#include "crypto/ecdsa.hpp"
#include "crypto/lru_map.hpp"

namespace bm::crypto {

class VerifyCache {
 public:
  /// Paper-scale default: comfortably holds a few hundred blocks' worth of
  /// distinct endorsements while bounding memory like the 8192-entry
  /// in-hardware stores.
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit VerifyCache(std::size_t capacity = kDefaultCapacity);

  /// Memoized crypto::verify. `sig_bytes` is the signature as it appeared
  /// on the wire (DER); `sig` the already-decoded form used on a miss.
  bool verify(const PublicKey& key, const Digest& digest, ByteView sig_bytes,
              const Signature& sig);

  std::size_t size() const;
  std::size_t capacity() const { return entries_.capacity(); }

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

  void clear();

 private:
  struct DigestHash {
    std::size_t operator()(const Digest& d) const;
  };

  mutable std::mutex mutex_;
  LruMap<Digest, bool, DigestHash> entries_;  ///< cache key -> verdict
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bm::crypto
