// ECDSA over P-256 with SHA-256, matching Fabric's default signature scheme.
//
// Nonces are derived deterministically per RFC 6979 so that signing is
// reproducible (no entropy source needed in tests or simulations).
#pragma once

#include <optional>

#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"

namespace bm::crypto {

struct Signature {
  U256 r;
  U256 s;

  friend bool operator==(const Signature&, const Signature&) = default;
};

struct PublicKey {
  AffinePoint point;

  /// Uncompressed SEC1 encoding: 0x04 || X (32) || Y (32).
  Bytes encode() const;
  static std::optional<PublicKey> decode(ByteView b);

  friend bool operator==(const PublicKey&, const PublicKey&) = default;
};

struct PrivateKey {
  U256 d;  ///< Scalar in [1, n-1].

  PublicKey public_key() const;
};

/// Derive a key pair from an arbitrary seed (hashed into the scalar field).
/// Deterministic: the same seed always yields the same key.
PrivateKey key_from_seed(ByteView seed);

/// Sign a 32-byte message digest.
Signature sign(const PrivateKey& key, const Digest& digest);

/// Verify a signature over a 32-byte message digest; the one verification
/// entry point. After the range and curve checks pass, u1*G + u2*Q runs
/// over the key's comb table from the key's second sight on, and over the
/// generic joint-wNAF multiply before that (crypto/comb_cache.hpp). The
/// verdict is the same either way.
bool verify(const PublicKey& key, const Digest& digest, const Signature& sig);

/// RFC 6979 deterministic nonce (exposed for the known-answer tests).
U256 rfc6979_nonce(const U256& d, const Digest& digest, std::uint32_t attempt);

}  // namespace bm::crypto
