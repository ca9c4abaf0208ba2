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

/// int2octets: a scalar as 32 big-endian bytes, on the stack.
std::array<std::uint8_t, 32> octets(const U256& a) {
  std::array<std::uint8_t, 32> out;
  for (std::size_t i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(a.w[3 - i / 8] >> (56 - 8 * (i % 8)));
  return out;
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
  const auto x = octets(d);
  // bits2octets(H(m)) = int2octets(bits2int(H(m)) mod n).
  const auto h1 = octets(reduce_n(digest_to_scalar(digest)));
  const std::uint8_t zero = 0x00;
  const std::uint8_t one = 0x01;

  // K and V stay in fixed arrays, and each K's HMAC midstates are made
  // once; those of the first K, all zeros, serve every nonce.
  static const HmacSha256 kZeroKey(Digest{});
  Digest v;
  v.fill(0x01);
  Digest k = kZeroKey.mac({v, ByteView(&zero, 1), x, h1});
  HmacSha256 mac(k);
  v = mac.mac({v});
  k = mac.mac({v, ByteView(&one, 1), x, h1});
  mac = HmacSha256(k);
  v = mac.mac({v});

  std::uint32_t produced = 0;
  for (;;) {
    v = mac.mac({v});
    const U256 candidate = U256::from_bytes_be(v);
    if (!candidate.is_zero() && cmp(candidate, n) < 0) {
      if (produced == attempt) return candidate;
      ++produced;
    }
    k = mac.mac({v, ByteView(&zero, 1)});
    mac = HmacSha256(k);
    v = mac.mac({v});
  }
}

namespace {

Signature sign_one(const SignItem& item) {
  const U256 e = reduce_n(digest_to_scalar(item.digest));
  for (std::uint32_t attempt = 0;; ++attempt) {
    const U256 k = rfc6979_nonce(item.key.d, item.digest, attempt);
    const AffinePoint kg = to_affine(base_mult(k));
    const U256 r = reduce_n(kg.x);
    if (r.is_zero()) continue;
    const U256 s = fn_mul(fn_inv(k), fn_add(e, fn_mul(r, item.key.d)));
    if (s.is_zero()) continue;
    return Signature{r, s};
  }
}

/// The range and curve checks every verification starts with.
bool well_formed(const VerifyItem& item) {
  const U256& n = p256_n();
  if (item.sig.r.is_zero() || item.sig.s.is_zero()) return false;
  if (cmp(item.sig.r, n) >= 0 || cmp(item.sig.s, n) >= 0) return false;
  return !item.key.point.infinity && on_curve(item.key.point);
}

bool verify_one(const VerifyItem& item) {
  if (!well_formed(item)) return false;
  const U256 e = reduce_n(digest_to_scalar(item.digest));
  const U256 w = fn_inv(item.sig.s);
  const U256 u1 = fn_mul(e, w);
  const U256 u2 = fn_mul(item.sig.r, w);
  const auto table = CombCache::shared().table_for(item.key);
  return x_equals_mod_n(table != nullptr
                            ? double_scalar_mult_comb(u1, u2, *table)
                            : double_scalar_mult(u1, u2, item.key.point),
                        item.sig.r);
}

/// Every a[i] (nonzero, < n) replaced by its inverse mod n, with one
/// inversion: Montgomery's trick.
void fn_inv_batch(std::vector<U256>& a) {
  std::vector<U256> prefix(a.size());
  U256 product = U256::from_u64(1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    prefix[i] = product;
    product = fn_mul(product, a[i]);
  }
  U256 inv = fn_inv(product);
  for (std::size_t i = a.size(); i-- > 0;) {
    const U256 ai = a[i];
    a[i] = fn_mul(inv, prefix[i]);
    inv = fn_mul(inv, ai);
  }
}

}  // namespace

std::vector<Signature> sign(std::span<const SignItem> items) {
  std::vector<Signature> out(items.size());
  if (items.size() < kSignBatchMin) {
    for (std::size_t i = 0; i < items.size(); ++i) out[i] = sign_one(items[i]);
    return out;
  }
  // Each item's first nonce; an item whose r or s comes out zero (odds
  // about 2^-256) is signed again alone, which moves on to the next nonce.
  std::vector<CombLane> lanes(items.size());
  std::vector<U256> k_inv(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    lanes[i].u1 = rfc6979_nonce(items[i].key.d, items[i].digest, 0);
    k_inv[i] = lanes[i].u1;
  }
  const std::vector<AffinePoint> kg = double_scalar_mult_comb_batch(lanes);
  fn_inv_batch(k_inv);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SignItem& item = items[i];
    const U256 r = reduce_n(kg[i].x);
    const U256 s =
        fn_mul(k_inv[i], fn_add(reduce_n(digest_to_scalar(item.digest)),
                                fn_mul(r, item.key.d)));
    out[i] = r.is_zero() || s.is_zero() ? sign_one(item) : Signature{r, s};
  }
  return out;
}

std::vector<bool> verify(std::span<const VerifyItem> items) {
  std::vector<bool> ok(items.size(), false);
  const std::size_t batch_min = verify_batch_min();
  if (items.size() < batch_min) {
    for (std::size_t i = 0; i < items.size(); ++i) ok[i] = verify_one(items[i]);
    return ok;
  }
  // The well-formed items' s^-1 together.
  std::vector<std::size_t> live;
  std::vector<U256> w;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!well_formed(items[i])) continue;
    live.push_back(i);
    w.push_back(items[i].sig.s);
  }
  fn_inv_batch(w);
  // In item order: ask the cache for the key's table; an item without one
  // runs the generic multiply now, the rest become lanes.
  std::vector<std::shared_ptr<const PointCombTable>> tables;
  std::vector<CombLane> lanes;
  std::vector<std::size_t> lane_item;
  for (std::size_t j = 0; j < live.size(); ++j) {
    const VerifyItem& item = items[live[j]];
    const U256 u1 = fn_mul(reduce_n(digest_to_scalar(item.digest)), w[j]);
    const U256 u2 = fn_mul(item.sig.r, w[j]);
    auto table = CombCache::shared().table_for(item.key);
    if (table == nullptr) {
      ok[live[j]] = x_equals_mod_n(double_scalar_mult(u1, u2, item.key.point),
                                   item.sig.r);
      continue;
    }
    lanes.push_back({u1, u2, table.get()});
    lane_item.push_back(live[j]);
    tables.push_back(std::move(table));
  }
  if (lanes.size() < batch_min) {
    for (std::size_t j = 0; j < lanes.size(); ++j)
      ok[lane_item[j]] = x_equals_mod_n(
          double_scalar_mult_comb(lanes[j].u1, lanes[j].u2, *lanes[j].q),
          items[lane_item[j]].sig.r);
    return ok;
  }
  const std::vector<AffinePoint> points = double_scalar_mult_comb_batch(lanes);
  for (std::size_t j = 0; j < lanes.size(); ++j)
    ok[lane_item[j]] = !points[j].infinity &&
                       reduce_n(points[j].x) == items[lane_item[j]].sig.r;
  return ok;
}

}  // namespace bm::crypto
