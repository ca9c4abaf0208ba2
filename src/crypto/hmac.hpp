// HMAC-SHA256 (RFC 2104), used by the deterministic ECDSA nonce derivation.
#pragma once

#include <initializer_list>

#include "crypto/sha256.hpp"

namespace bm::crypto {

/// HMAC-SHA256 under one key. The key's ipad and opad blocks are absorbed
/// once into SHA-256 midstates, and every MAC under the key forks them, so
/// a MAC costs no key padding and no heap work.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);

  /// The MAC of the concatenation of `parts`.
  Digest mac(std::initializer_list<ByteView> parts) const;

 private:
  Sha256 inner_;  ///< midstate after the ipad block
  Sha256 outer_;  ///< midstate after the opad block
};

/// One MAC under a key that is used once.
inline Digest hmac_sha256(ByteView key, ByteView message) {
  return HmacSha256(key).mac({message});
}

}  // namespace bm::crypto
