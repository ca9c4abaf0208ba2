#include "crypto/ecdsa.hpp"

#include "crypto/comb_cache.hpp"
#include "crypto/hmac.hpp"

namespace bm::crypto {

namespace {

/// bits2int for SHA-256 digests with the 256-bit group order: interpret the
/// digest as a big-endian integer (no truncation needed) and reduce mod n
/// where required by the signing equation.
U256 digest_to_scalar(const Digest& digest) {
  return U256::from_bytes_be(digest_view(digest));
}

U256 reduce_n(const U256& v) {
  const U256& n = p256_n();
  U256 r = v;
  if (cmp(r, n) >= 0) sub(r, r, n);
  return r;
}

}  // namespace

Bytes PublicKey::encode() const {
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  append(out, point.x.to_bytes_be());
  append(out, point.y.to_bytes_be());
  return out;
}

std::optional<PublicKey> PublicKey::decode(ByteView b) {
  if (b.size() != 65 || b[0] != 0x04) return std::nullopt;
  PublicKey key;
  key.point.x = U256::from_bytes_be(slice(b, 1, 32));
  key.point.y = U256::from_bytes_be(slice(b, 33, 32));
  key.point.infinity = false;
  if (!on_curve(key.point)) return std::nullopt;
  return key;
}

PublicKey PrivateKey::public_key() const {
  return PublicKey{to_affine(base_mult(d))};
}

PrivateKey key_from_seed(ByteView seed) {
  // Hash the seed with a counter until the scalar lands in [1, n-1]; the
  // first attempt succeeds with overwhelming probability.
  for (std::uint32_t counter = 0;; ++counter) {
    Sha256 h;
    h.update(to_bytes("bmac-p256-key"));
    h.update(seed);
    std::uint8_t c[4] = {
        static_cast<std::uint8_t>(counter >> 24),
        static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8),
        static_cast<std::uint8_t>(counter)};
    h.update(ByteView(c, 4));
    const U256 d = U256::from_bytes_be(digest_view(h.finish()));
    if (!d.is_zero() && cmp(d, p256_n()) < 0) return PrivateKey{d};
  }
}

U256 rfc6979_nonce(const U256& d, const Digest& digest,
                   std::uint32_t attempt) {
  const U256& n = p256_n();
  const Bytes x = d.to_bytes_be();
  // bits2octets(H(m)) = int2octets(bits2int(H(m)) mod n).
  const Bytes h1 = reduce_n(digest_to_scalar(digest)).to_bytes_be();

  Bytes v(32, 0x01);
  Bytes k(32, 0x00);
  const std::uint8_t zero = 0x00;
  const std::uint8_t one = 0x01;

  Digest t = hmac_sha256_parts(k, {v, ByteView(&zero, 1), x, h1});
  k.assign(t.begin(), t.end());
  t = hmac_sha256(k, v);
  v.assign(t.begin(), t.end());
  t = hmac_sha256_parts(k, {v, ByteView(&one, 1), x, h1});
  k.assign(t.begin(), t.end());
  t = hmac_sha256(k, v);
  v.assign(t.begin(), t.end());

  std::uint32_t produced = 0;
  for (;;) {
    t = hmac_sha256(k, v);
    v.assign(t.begin(), t.end());
    const U256 candidate = U256::from_bytes_be(v);
    if (!candidate.is_zero() && cmp(candidate, n) < 0) {
      if (produced == attempt) return candidate;
      ++produced;
    }
    t = hmac_sha256_parts(k, {v, ByteView(&zero, 1)});
    k.assign(t.begin(), t.end());
    t = hmac_sha256(k, v);
    v.assign(t.begin(), t.end());
  }
}

Signature sign(const PrivateKey& key, const Digest& digest) {
  const U256 e = reduce_n(digest_to_scalar(digest));
  for (std::uint32_t attempt = 0;; ++attempt) {
    const U256 k = rfc6979_nonce(key.d, digest, attempt);
    const AffinePoint kg = to_affine(base_mult(k));
    const U256 r = reduce_n(kg.x);
    if (r.is_zero()) continue;
    const U256 s = fn_mul(fn_inv(k), fn_add(e, fn_mul(r, key.d)));
    if (s.is_zero()) continue;
    return Signature{r, s};
  }
}

bool verify(const PublicKey& key, const Digest& digest, const Signature& sig) {
  const U256& n = p256_n();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;
  if (key.point.infinity || !on_curve(key.point)) return false;

  const U256 e = reduce_n(digest_to_scalar(digest));
  const U256 w = fn_inv(sig.s);
  const U256 u1 = fn_mul(e, w);
  const U256 u2 = fn_mul(sig.r, w);
  const auto table = CombCache::shared().table_for(key);
  return x_equals_mod_n(table != nullptr
                            ? double_scalar_mult_comb(u1, u2, *table)
                            : double_scalar_mult(u1, u2, key.point),
                        sig.r);
}

}  // namespace bm::crypto
