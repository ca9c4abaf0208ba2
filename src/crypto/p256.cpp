#include "crypto/p256.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

namespace bm::crypto {

namespace {

constexpr U256 kP{{0xffffffffffffffff, 0x00000000ffffffff, 0x0000000000000000,
                   0xffffffff00000001}};
constexpr U256 kN{{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff,
                   0xffffffff00000000}};
/// -n^-1 mod 2^64, the Montgomery reduction multiplier for n (the one for
/// p is 1, which fe_reduce builds in).
constexpr std::uint64_t kNInv0 = 0xccd1c8aaee00bc4f;
/// 2^512 mod p and 2^512 mod n: a Montgomery product with these moves a
/// value into the Montgomery domain.
constexpr U256 kR2ModP{{0x0000000000000003, 0xfffffffbffffffff,
                        0xfffffffffffffffe, 0x00000004fffffffd}};
constexpr U256 kR2ModN{{0x83244c95be79eea2, 0x4699799c49bd6fa6,
                        0x2845b2392b6bec59, 0x66e12d94f3d95620}};
/// 2^256 mod p: the field's one in the Montgomery domain.
constexpr U256 kPOne{{0x0000000000000001, 0xffffffff00000000,
                      0xffffffffffffffff, 0x00000000fffffffe}};

const U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
const AffinePoint kG = {
    U256::from_hex(
        "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
    U256::from_hex(
        "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
    false};

// Montgomery-domain field operations. They are written out limb by limb,
// with no loops, so every optimisation level keeps the limbs in registers
// once they are inlined into the point formulas.

using u64 = std::uint64_t;

/// One Montgomery round for p: adds q * p to the limbs from x0 up, with
/// q = x0, which clears x0. Since -p^-1 = 1 mod 2^64 the multiplier needs no
/// product, and q * p adds as two shifted words and one product with p's top
/// limb: x0 + q * (2^64 - 1) is q * 2^64, which carries q into x1, where
/// with q * (2^32 - 1) it makes q * 2^32; p's third limb is zero. `top`
/// carries in and out at x4.
[[gnu::always_inline]] inline void reduce_round(u64 x0, u64& x1, u64& x2,
                                                u64& x3, u64& x4, u64& top) {
  u64 hi = 0;
  const u64 lo = mul_hilo(x0, kP.w[3], hi);
  std::uint8_t c = add_carry(0, x1, x0 << 32, x1);
  c = add_carry(c, x2, x0 >> 32, x2);
  c = add_carry(c, x3, lo, x3);
  c = add_carry(c, x4, hi, x4);
  const std::uint8_t c2 = add_carry(0, x4, top, x4);
  top = static_cast<u64>(c) + c2;
}

/// Montgomery reduction of t (< p * 2^256): t * 2^-256 mod p.
[[gnu::always_inline]] inline U256 fe_reduce(const U512& t) {
  u64 x0 = t.w[0], x1 = t.w[1], x2 = t.w[2], x3 = t.w[3];
  u64 x4 = t.w[4], x5 = t.w[5], x6 = t.w[6], x7 = t.w[7];
  u64 top = 0;
  reduce_round(x0, x1, x2, x3, x4, top);
  reduce_round(x1, x2, x3, x4, x5, top);
  reduce_round(x2, x3, x4, x5, x6, top);
  reduce_round(x3, x4, x5, x6, x7, top);
  return subtract_once(U256{{x4, x5, x6, x7}}, top, kP);
}

[[gnu::always_inline]] inline U256 fe_mul(const U256& a, const U256& b) {
  return fe_reduce(mul_wide(a, b));
}

/// fe_mul(a, a) with the six cross products computed once and doubled:
/// 10 limb products instead of 16.
[[gnu::always_inline]] inline U256 fe_sqr(const U256& a) {
  const u64 a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  u64 x1 = 0, x2 = 0, x3 = 0, x4 = 0, x5 = 0, x6 = 0, x7 = 0;
  u64 c = 0;
  mul_add(a0, a1, x1, c); mul_add(a0, a2, x2, c); mul_add(a0, a3, x3, c);
  x4 = c;
  c = 0;
  mul_add(a1, a2, x3, c); mul_add(a1, a3, x4, c);
  x5 = c;
  c = 0;
  mul_add(a2, a3, x5, c);
  x6 = c;
  // Double the cross products.
  x7 = x6 >> 63;
  x6 = (x6 << 1) | (x5 >> 63);
  x5 = (x5 << 1) | (x4 >> 63);
  x4 = (x4 << 1) | (x3 >> 63);
  x3 = (x3 << 1) | (x2 >> 63);
  x2 = (x2 << 1) | (x1 >> 63);
  x1 <<= 1;
  // Add the squares a_i^2 at limb 2i.
  u64 hi = 0;
  const u64 x0 = mul_hilo(a0, a0, hi);
  std::uint8_t k = add_carry(0, x1, hi, x1);
  u64 lo = mul_hilo(a1, a1, hi);
  k = add_carry(k, x2, lo, x2);
  k = add_carry(k, x3, hi, x3);
  lo = mul_hilo(a2, a2, hi);
  k = add_carry(k, x4, lo, x4);
  k = add_carry(k, x5, hi, x5);
  lo = mul_hilo(a3, a3, hi);
  k = add_carry(k, x6, lo, x6);
  add_carry(k, x7, hi, x7);
  return fe_reduce(U512{{x0, x1, x2, x3, x4, x5, x6, x7}});
}

[[gnu::always_inline]] inline U256 fe_add(const U256& a, const U256& b) {
  U256 r;
  std::uint8_t c = add_carry(0, a.w[0], b.w[0], r.w[0]);
  c = add_carry(c, a.w[1], b.w[1], r.w[1]);
  c = add_carry(c, a.w[2], b.w[2], r.w[2]);
  c = add_carry(c, a.w[3], b.w[3], r.w[3]);
  return subtract_once(r, c, kP);
}

[[gnu::always_inline]] inline U256 fe_sub(const U256& a, const U256& b) {
  U256 r;
  std::uint8_t c = sub_borrow(0, a.w[0], b.w[0], r.w[0]);
  c = sub_borrow(c, a.w[1], b.w[1], r.w[1]);
  c = sub_borrow(c, a.w[2], b.w[2], r.w[2]);
  c = sub_borrow(c, a.w[3], b.w[3], r.w[3]);
  // Add p back when the difference went negative.
  const u64 mask = 0 - static_cast<u64>(c);
  c = add_carry(0, r.w[0], kP.w[0] & mask, r.w[0]);
  c = add_carry(c, r.w[1], kP.w[1] & mask, r.w[1]);
  c = add_carry(c, r.w[2], kP.w[2] & mask, r.w[2]);
  add_carry(c, r.w[3], kP.w[3] & mask, r.w[3]);
  return r;
}

inline U256 fe_neg(const U256& a) { return fe_sub(U256{}, a); }

const U256 kBMont = fp_to_mont(kB);

}  // namespace

const U256& p256_p() { return kP; }
const U256& p256_n() { return kN; }
const AffinePoint& p256_generator() { return kG; }

U256 fp_to_mont(const U256& a) { return fe_mul(a, kR2ModP); }

U256 fp_from_mont(const U256& a) {
  return fe_reduce(U512{{a.w[0], a.w[1], a.w[2], a.w[3], 0, 0, 0, 0}});
}

U256 fp_add(const U256& a, const U256& b) { return fe_add(a, b); }
U256 fp_sub(const U256& a, const U256& b) { return fe_sub(a, b); }
U256 fp_mul(const U256& a, const U256& b) { return fe_mul(a, b); }
U256 fp_sqr(const U256& a) { return fe_sqr(a); }

U256 fp_inv(const U256& a) {
  // inv_mod(a R) = a^-1 R^-1; two products with R^2 bring it to a^-1 R.
  return fe_mul(fe_mul(inv_mod(a, kP), kR2ModP), kR2ModP);
}

U256 fn_add(const U256& a, const U256& b) { return add_mod(a, b, kN); }

U256 fn_mul(const U256& a, const U256& b) {
  const U256 abr = mont_reduce(mul_wide(a, b), kN, kNInv0);  // a b R^-1
  return mont_reduce(mul_wide(abr, kR2ModN), kN, kNInv0);
}

U256 fn_inv(const U256& a) { return inv_mod(a, kN); }

JacobianPoint to_jacobian(const AffinePoint& p) {
  if (p.infinity) return JacobianPoint{};
  return JacobianPoint{fp_to_mont(p.x), fp_to_mont(p.y), kPOne};
}

AffinePoint to_affine(const JacobianPoint& p) {
  if (p.is_infinity()) return AffinePoint{{}, {}, true};
  const U256 zinv = fp_inv(p.z);
  const U256 zinv2 = fe_sqr(zinv);
  const U256 zinv3 = fe_mul(zinv2, zinv);
  return AffinePoint{fp_from_mont(fe_mul(p.x, zinv2)),
                     fp_from_mont(fe_mul(p.y, zinv3)), false};
}

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint{};
  // dbl-2001-b formulas for a = -3.
  const U256 delta = fe_sqr(p.z);
  const U256 gamma = fe_sqr(p.y);
  const U256 beta = fe_mul(p.x, gamma);
  const U256 t = fe_mul(fe_sub(p.x, delta), fe_add(p.x, delta));
  const U256 alpha = fe_add(fe_add(t, t), t);
  const U256 beta2 = fe_add(beta, beta);
  const U256 beta4 = fe_add(beta2, beta2);
  JacobianPoint r;
  r.x = fe_sub(fe_sqr(alpha), fe_add(beta4, beta4));
  r.z = fe_sub(fe_sub(fe_sqr(fe_add(p.y, p.z)), gamma), delta);
  const U256 gamma2 = fe_sqr(gamma);
  const U256 gamma2_2 = fe_add(gamma2, gamma2);
  const U256 gamma2_4 = fe_add(gamma2_2, gamma2_2);
  r.y = fe_sub(fe_mul(alpha, fe_sub(beta4, r.x)), fe_add(gamma2_4, gamma2_4));
  return r;
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const U256 z1z1 = fe_sqr(p.z);
  const U256 z2z2 = fe_sqr(q.z);
  const U256 u1 = fe_mul(p.x, z2z2);
  const U256 u2 = fe_mul(q.x, z1z1);
  const U256 s1 = fe_mul(p.y, fe_mul(z2z2, q.z));
  const U256 s2 = fe_mul(q.y, fe_mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return point_double(p);
    return JacobianPoint{};  // p + (-p)
  }
  const U256 h = fe_sub(u2, u1);
  const U256 r = fe_sub(s2, s1);
  const U256 h2 = fe_sqr(h);
  const U256 h3 = fe_mul(h2, h);
  const U256 u1h2 = fe_mul(u1, h2);
  JacobianPoint out;
  out.x = fe_sub(fe_sub(fe_sqr(r), h3), fe_add(u1h2, u1h2));
  out.y = fe_sub(fe_mul(r, fe_sub(u1h2, out.x)), fe_mul(s1, h3));
  out.z = fe_mul(fe_mul(p.z, q.z), h);
  return out;
}

namespace {

/// Mixed addition (madd-2007-bl shape, Z2 = 1) with q finite and given by
/// Montgomery-domain coordinates, as the precomputed tables store it.
JacobianPoint add_mont_affine(const JacobianPoint& p, const AffinePoint& q) {
  if (p.is_infinity()) return JacobianPoint{q.x, q.y, kPOne};
  const U256 z1z1 = fe_sqr(p.z);
  const U256 u2 = fe_mul(q.x, z1z1);
  const U256 s2 = fe_mul(q.y, fe_mul(z1z1, p.z));
  if (p.x == u2) {
    if (p.y == s2) return point_double(p);
    return JacobianPoint{};  // p + (-p)
  }
  const U256 h = fe_sub(u2, p.x);
  const U256 r = fe_sub(s2, p.y);
  const U256 h2 = fe_sqr(h);
  const U256 h3 = fe_mul(h2, h);
  const U256 v = fe_mul(p.x, h2);
  JacobianPoint out;
  out.x = fe_sub(fe_sub(fe_sqr(r), h3), fe_add(v, v));
  out.y = fe_sub(fe_mul(r, fe_sub(v, out.x)), fe_mul(p.y, h3));
  out.z = fe_mul(p.z, h);
  return out;
}

/// Montgomery's trick: one inversion plus 3(n-1) multiplications inverts
/// every Z at once. The results keep Montgomery-domain coordinates, as the
/// tables want them; infinities pass through with Z treated as 1.
std::vector<AffinePoint> batch_normalize(
    const std::vector<JacobianPoint>& pts) {
  std::vector<AffinePoint> out(pts.size());
  std::vector<U256> prefix(pts.size());
  U256 acc = kPOne;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    prefix[i] = acc;
    if (!pts[i].is_infinity()) acc = fe_mul(acc, pts[i].z);
  }
  U256 inv = fp_inv(acc);
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (pts[i].is_infinity()) {
      out[i] = AffinePoint{{}, {}, true};
      continue;
    }
    const U256 zinv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, pts[i].z);
    const U256 zinv2 = fe_sqr(zinv);
    out[i] = AffinePoint{fe_mul(pts[i].x, zinv2),
                         fe_mul(pts[i].y, fe_mul(zinv2, zinv)), false};
  }
  return out;
}

}  // namespace

JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  return add_mont_affine(p, AffinePoint{fp_to_mont(q.x), fp_to_mont(q.y)});
}

std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts) {
  std::vector<AffinePoint> out = batch_normalize(pts);
  for (AffinePoint& a : out) {
    if (a.infinity) continue;
    a.x = fp_from_mont(a.x);
    a.y = fp_from_mont(a.y);
  }
  return out;
}

namespace {

JacobianPoint jac_negate(const JacobianPoint& p) {
  return JacobianPoint{p.x, fe_neg(p.y), p.z};
}

AffinePoint affine_negate(const AffinePoint& p) {
  return AffinePoint{p.x, fe_neg(p.y), false};
}

/// Width-w NAF digits of k, least significant first. Digits are zero or odd
/// in [-(2^(w-1) - 1), 2^(w-1) - 1]; at most 257 are produced.
int wnaf_digits(const U256& k, int w, std::int8_t* digits) {
  U256 v = k;
  const std::uint64_t mask = (1u << w) - 1;
  const std::int64_t half = std::int64_t{1} << (w - 1);
  int len = 0;
  while (!v.is_zero()) {
    std::int8_t d = 0;
    if (v.w[0] & 1) {
      std::int64_t low = static_cast<std::int64_t>(v.w[0] & mask);
      if (low >= half) low -= 2 * half;
      d = static_cast<std::int8_t>(low);
      // v -= d (d odd, |d| < 2^(w-1); callers pass k < n so no overflow).
      U256 delta = U256::from_u64(static_cast<std::uint64_t>(low < 0 ? -low : low));
      if (low > 0) sub(v, v, delta);
      else add(v, v, delta);
    }
    digits[len++] = d;
    // v >>= 1.
    for (int i = 0; i < 3; ++i) v.w[i] = (v.w[i] >> 1) | (v.w[i + 1] << 63);
    v.w[3] >>= 1;
  }
  return len;
}

constexpr int kWnafWidth = 5;            ///< arbitrary-point tables: 8 entries
constexpr int kWnafWidthBase = 7;        ///< generator table: 32 entries
constexpr int kCombTeeth = 8;            ///< comb rows
constexpr int kCombSpacing = 32;         ///< comb columns (256 / kCombTeeth)

/// Odd multiples {P, 3P, 5P, ..., (2^(w-1) - 1)P} in Jacobian coordinates.
std::vector<JacobianPoint> odd_multiples(const AffinePoint& p, int w) {
  const int count = 1 << (w - 2);
  std::vector<JacobianPoint> tbl(static_cast<std::size_t>(count));
  tbl[0] = to_jacobian(p);
  const JacobianPoint p2 = point_double(tbl[0]);
  for (int i = 1; i < count; ++i) tbl[i] = point_add(tbl[i - 1], p2);
  return tbl;
}

/// Precomputed affine odd multiples of G for the joint-wNAF verify path.
const std::vector<AffinePoint>& base_wnaf_table() {
  static const std::vector<AffinePoint> tbl =
      batch_normalize(odd_multiples(kG, kWnafWidthBase));
  return tbl;
}

/// Lim–Lee comb entries for P: entry d (1..255) is sum_{t in bits(d)}
/// 2^(32t) * P, stored affine. 255 entries, ~16 KiB.
std::vector<AffinePoint> build_comb_entries(const AffinePoint& p) {
  std::array<JacobianPoint, kCombTeeth> spine;
  spine[0] = to_jacobian(p);
  for (int t = 1; t < kCombTeeth; ++t) {
    spine[t] = spine[t - 1];
    for (int i = 0; i < kCombSpacing; ++i) spine[t] = point_double(spine[t]);
  }
  std::vector<JacobianPoint> entries(1u << kCombTeeth);  // entry 0 unused
  for (unsigned d = 1; d < entries.size(); ++d) {
    const unsigned t = static_cast<unsigned>(__builtin_ctz(d));
    entries[d] =
        d == (1u << t) ? spine[t] : point_add(entries[d & (d - 1)], spine[t]);
  }
  return batch_normalize(entries);
}

const std::vector<AffinePoint>& base_comb_table() {
  static const std::vector<AffinePoint> tbl = build_comb_entries(kG);
  return tbl;
}

/// Column digit of the comb decomposition: bit t*32+col of k selects tooth t.
unsigned comb_digit(const U256& k, int col) {
  unsigned d = 0;
  for (int t = 0; t < kCombTeeth; ++t)
    d |= static_cast<unsigned>(k.bit(t * kCombSpacing + col)) << t;
  return d;
}

U256 reduce_mod_n(const U256& k) {
  U256 r = k;
  while (cmp(r, kN) >= 0) sub(r, r, kN);
  return r;
}

}  // namespace

JacobianPoint scalar_mult_naive(const U256& k, const AffinePoint& p) {
  JacobianPoint acc{};
  const JacobianPoint base = to_jacobian(p);
  const int top = k.top_bit();
  for (int i = top; i >= 0; --i) {
    acc = point_double(acc);
    if (k.bit(i)) acc = point_add(acc, base);
  }
  return acc;
}

JacobianPoint scalar_mult_wnaf(const U256& k, const AffinePoint& p) {
  const U256 kr = reduce_mod_n(k);
  if (kr.is_zero() || p.infinity) return JacobianPoint{};
  std::int8_t digits[257];
  const int len = wnaf_digits(kr, kWnafWidth, digits);
  const std::vector<JacobianPoint> tbl = odd_multiples(p, kWnafWidth);
  JacobianPoint acc{};
  for (int i = len - 1; i >= 0; --i) {
    acc = point_double(acc);
    const int d = digits[i];
    if (d > 0) acc = point_add(acc, tbl[static_cast<std::size_t>(d / 2)]);
    else if (d < 0)
      acc = point_add(acc, jac_negate(tbl[static_cast<std::size_t>(-d / 2)]));
  }
  return acc;
}

JacobianPoint base_mult(const U256& k) {
  const U256 kr = reduce_mod_n(k);
  if (kr.is_zero()) return JacobianPoint{};
  const std::vector<AffinePoint>& tbl = base_comb_table();
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    const unsigned d = comb_digit(kr, col);
    if (d != 0) acc = add_mont_affine(acc, tbl[d]);
  }
  return acc;
}

PointCombTable PointCombTable::build(const AffinePoint& p) {
  PointCombTable tbl;
  tbl.point_ = p;
  if (!p.infinity) tbl.entries_ = build_comb_entries(p);
  return tbl;
}

JacobianPoint PointCombTable::mult(const U256& k) const {
  const U256 kr = reduce_mod_n(k);
  if (kr.is_zero() || point_.infinity) return JacobianPoint{};
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    const unsigned d = comb_digit(kr, col);
    if (d != 0) acc = add_mont_affine(acc, entries_[d]);
  }
  return acc;
}

JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                      const PointCombTable& q) {
  const U256 u1r = reduce_mod_n(u1);
  const U256 u2r = q.point().infinity ? U256{} : reduce_mod_n(u2);
  if (u2r.is_zero()) return base_mult(u1r);
  if (u1r.is_zero()) return q.mult(u2r);
  const std::vector<AffinePoint>& gtbl = base_comb_table();
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    const unsigned d1 = comb_digit(u1r, col);
    if (d1 != 0) acc = add_mont_affine(acc, gtbl[d1]);
    const unsigned d2 = comb_digit(u2r, col);
    if (d2 != 0) acc = add_mont_affine(acc, q.entries_[d2]);
  }
  return acc;
}

JacobianPoint scalar_mult(const U256& k, const AffinePoint& p) {
  if (!p.infinity && p.x == kG.x && p.y == kG.y) return base_mult(k);
  return scalar_mult_wnaf(k, p);
}

JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q) {
  const U256 u1r = reduce_mod_n(u1);
  const U256 u2r = q.infinity ? U256{} : reduce_mod_n(u2);
  std::int8_t d1[257], d2[257];
  const int len1 = u1r.is_zero() ? 0 : wnaf_digits(u1r, kWnafWidthBase, d1);
  const int len2 = u2r.is_zero() ? 0 : wnaf_digits(u2r, kWnafWidth, d2);
  const std::vector<AffinePoint>& gtbl = base_wnaf_table();
  const std::vector<JacobianPoint> qtbl =
      len2 != 0 ? odd_multiples(q, kWnafWidth) : std::vector<JacobianPoint>{};
  JacobianPoint acc{};
  for (int i = std::max(len1, len2) - 1; i >= 0; --i) {
    acc = point_double(acc);
    if (i < len1 && d1[i] != 0) {
      const int d = d1[i];
      const AffinePoint& g = gtbl[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = add_mont_affine(acc, d > 0 ? g : affine_negate(g));
    }
    if (i < len2 && d2[i] != 0) {
      const int d = d2[i];
      const JacobianPoint& t = qtbl[static_cast<std::size_t>(std::abs(d) / 2)];
      acc = point_add(acc, d > 0 ? t : jac_negate(t));
    }
  }
  return acc;
}

bool x_equals_mod_n(const JacobianPoint& p, const U256& r) {
  if (p.is_infinity()) return false;
  // The affine x is X / Z^2 and lies in [0, p), so x mod n == r means x is
  // r or, when that is still < p, r + n. Test X == x * Z^2 for both: a
  // Montgomery product of an ordinary-domain x and the Montgomery-domain
  // Z^2 lands in the ordinary domain, where X is compared.
  const U256 x = fp_from_mont(p.x);
  const U256 zz = fe_sqr(p.z);
  if (fe_mul(r, zz) == x) return true;
  U256 r_plus_n;
  if (add(r_plus_n, r, kN) != 0 || cmp(r_plus_n, kP) >= 0) return false;
  return fe_mul(r_plus_n, zz) == x;
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return true;
  if (cmp(p.x, kP) >= 0 || cmp(p.y, kP) >= 0) return false;
  const U256 x = fp_to_mont(p.x);
  const U256 y = fp_to_mont(p.y);
  // y^2 == x^3 - 3x + b
  const U256 x3 = fe_mul(fe_sqr(x), x);
  const U256 three_x = fe_add(fe_add(x, x), x);
  return fe_sqr(y) == fe_add(fe_sub(x3, three_x), kBMont);
}

}  // namespace bm::crypto
