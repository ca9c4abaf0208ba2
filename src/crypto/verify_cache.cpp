#include "crypto/verify_cache.hpp"

namespace bm::crypto {

namespace {

/// The cache key: SHA-256 over the full verification input — uncompressed
/// public key, message digest, and the signature's wire bytes. Any single
/// differing bit lands in a different entry.
Digest cache_key(const PublicKey& key, const Digest& digest,
                 ByteView sig_bytes) {
  Sha256 h;
  const Bytes encoded = key.encode();
  h.update(encoded);
  h.update(digest_view(digest));
  h.update(sig_bytes);
  return h.finish();
}

}  // namespace

std::size_t VerifyCache::DigestHash::operator()(const Digest& d) const {
  // The key is already a cryptographic hash; fold the first 8 bytes.
  std::size_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | d[static_cast<std::size_t>(i)];
  return out;
}

VerifyCache::VerifyCache(std::size_t capacity) : entries_(capacity) {}

bool VerifyCache::verify(const PublicKey& key, const Digest& digest,
                         ByteView sig_bytes, const Signature& sig) {
  const Digest k = cache_key(key, digest, sig_bytes);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const bool* valid = entries_.find(k)) {
      ++hits_;
      return *valid;
    }
    ++misses_;
  }
  // The expensive check runs outside the lock so parallel vscc workers
  // verifying distinct signatures never serialize on the cache.
  const bool valid = crypto::verify(key, digest, sig);
  std::lock_guard<std::mutex> lock(mutex_);
  // Another worker may have inserted the same triple while we verified;
  // both computed the same deterministic outcome.
  if (entries_.find(k) == nullptr && entries_.insert(k, valid)) ++evictions_;
  return valid;
}

std::size_t VerifyCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t VerifyCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t VerifyCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t VerifyCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void VerifyCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace bm::crypto
