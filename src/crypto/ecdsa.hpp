// ECDSA over P-256 with SHA-256, matching Fabric's default signature scheme.
//
// Nonces are derived deterministically per RFC 6979 so that signing is
// reproducible (no entropy source needed in tests or simulations).
#pragma once

#include <optional>
#include <span>
#include <vector>

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

struct SignItem {
  PrivateKey key;
  Digest digest;
};

/// Sign every item's digest; the one signing entry point. A batch of at
/// least kSignBatchMin items walks the generator's comb in lockstep
/// (double_scalar_mult_comb_batch), so each kG comes out affine, and
/// inverts every nonce mod n at once; a shorter one signs item by item.
/// The nonces are RFC 6979's, so the signatures are the same bytes either
/// way. The crossover was measured on x86-64 with the ADX field kernel.
inline constexpr std::size_t kSignBatchMin = 12;
std::vector<Signature> sign(std::span<const SignItem> items);

/// Sign a 32-byte message digest: a batch of one.
inline Signature sign(const PrivateKey& key, const Digest& digest) {
  const SignItem item{key, digest};
  return sign(std::span(&item, 1)).front();
}

struct VerifyItem {
  PublicKey key;
  Digest digest;
  Signature sig;
};

/// Verify every item; the one verification entry point, verdict i for item
/// i. After an item's range and curve checks pass, u1*G + u2*Q runs over
/// its key's comb table from the key's second sight on, and over the
/// generic joint-wNAF multiply before that (crypto/comb_cache.hpp); the
/// cache is asked once per such item, in item order. A batch of at least
/// verify_batch_min() items inverts every s mod n at once and walks its
/// comb-table items in lockstep when there are verify_batch_min() of them;
/// fewer run one Jacobian comb walk each. The verdicts are the same on
/// every path.
std::vector<bool> verify(std::span<const VerifyItem> items);

/// verify's crossover, measured like kSignBatchMin's, for the walk kernel:
/// the IFMA walk wins from 16 items, the portable one only from 20.
inline std::size_t verify_batch_min() {
  return detail::comb_ifma_kernel() ? 16 : 20;
}

/// Verify a signature over a 32-byte message digest: a batch of one.
inline bool verify(const PublicKey& key, const Digest& digest,
                   const Signature& sig) {
  const VerifyItem item{key, digest, sig};
  return verify(std::span(&item, 1)).front();
}

/// RFC 6979 deterministic nonce (exposed for the known-answer tests).
U256 rfc6979_nonce(const U256& d, const Digest& digest, std::uint32_t attempt);

}  // namespace bm::crypto
