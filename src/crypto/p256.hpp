// NIST P-256 (secp256r1) curve arithmetic.
//
// Field elements inside point arithmetic live in the Montgomery domain
// (a * 2^256 mod p): a field multiply is one 4x64-limb product plus a
// division-free Montgomery reduction. Points use Jacobian projective
// coordinates; the point at infinity is represented by Z = 0. Affine points
// (public keys, curve constants) stay in the ordinary domain.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/u256.hpp"

namespace bm::crypto {

/// Curve parameters (y^2 = x^3 - 3x + b over F_p, group order n).
const U256& p256_p();
const U256& p256_n();

/// Field arithmetic mod p. Inputs must be < p; results are < p.
U256 fp_to_mont(const U256& a);    ///< a * 2^256 mod p
U256 fp_from_mont(const U256& a);  ///< a * 2^-256 mod p
/// Addition and subtraction are the same in either domain.
U256 fp_add(const U256& a, const U256& b);
U256 fp_sub(const U256& a, const U256& b);
/// Montgomery product a * b * 2^-256 mod p: the product of two
/// Montgomery-domain elements, again in the Montgomery domain. Runs a
/// mulx/adcx/adox kernel when cpuid reports bmi2 and adx, else the portable
/// one; both return the same limbs.
U256 fp_mul(const U256& a, const U256& b);
/// fp_mul(a, a) with a dedicated squaring (10 limb products instead of 16).
U256 fp_sqr(const U256& a);
/// Inverse of a Montgomery-domain element, in the Montgomery domain, by
/// safegcd (variable time); 0 maps to 0.
U256 fp_inv(const U256& a);

/// Arithmetic mod the group order n, ordinary domain. Inputs must be < n.
U256 fn_add(const U256& a, const U256& b);
/// a * b mod n as two Montgomery products (the second undoes the first's
/// factor 2^-256).
U256 fn_mul(const U256& a, const U256& b);
/// Bernstein–Yang safegcd (variable time); 0 maps to 0.
U256 fn_inv(const U256& a);

namespace detail {
/// The portable kernels behind fp_mul and fp_sqr, for tests to compare the
/// dispatched kernel against.
U256 fp_mul_portable(const U256& a, const U256& b);
U256 fp_sqr_portable(const U256& a);
/// True when fp_mul and fp_sqr run the mulx/adcx/adox kernel.
bool fp_adx_kernel();
}  // namespace detail

struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

struct JacobianPoint {
  U256 x;  ///< Montgomery domain, like y and z; read through to_affine.
  U256 y;
  U256 z;  ///< Zero limbs mean the point at infinity.

  bool is_infinity() const { return z.is_zero(); }
};

/// The group generator G.
const AffinePoint& p256_generator();

JacobianPoint to_jacobian(const AffinePoint& p);
AffinePoint to_affine(const JacobianPoint& p);

JacobianPoint point_double(const JacobianPoint& p);
JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q);
/// Mixed Jacobian + affine addition (Z2 = 1), ~30% cheaper than the general
/// formulas; the precomputed tables feed the same formulas.
JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q);

/// Convert many Jacobian points with one field inversion (Montgomery's
/// simultaneous-inversion trick).
std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts);

/// k * P. Dispatches to the fixed-base comb when P is the generator and to
/// width-5 wNAF otherwise. Since every finite curve point has order n
/// (cofactor 1), k is first reduced mod n; the result equals the naive
/// double-and-add for any k.
JacobianPoint scalar_mult(const U256& k, const AffinePoint& p);

/// k * P by left-to-right double-and-add; retained as the differential
/// oracle for the fast paths.
JacobianPoint scalar_mult_naive(const U256& k, const AffinePoint& p);

/// k * P by width-5 wNAF with a per-call odd-multiples table.
JacobianPoint scalar_mult_wnaf(const U256& k, const AffinePoint& p);

/// k * G via the precomputed fixed-base comb table (4 blocks x 8 teeth x 8
/// columns): 7 doublings + <= 32 mixed additions. The signing hot path.
JacobianPoint base_mult(const U256& k);

/// u1*G + u2*Q by joint wNAF (Shamir's trick): one shared doubling chain,
/// G digits resolved against a precomputed affine odd-multiples table and Q
/// digits against a per-call table; ECDSA verification's path for a key
/// that has no comb table yet.
JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q);

/// True iff p is finite and its affine x, reduced mod n, equals r (r < n):
/// the ECDSA acceptance test, evaluated as r * Z^2 == X (and, when
/// r + n < p, (r + n) * Z^2 == X) so no field inversion is needed.
bool x_equals_mod_n(const JacobianPoint& p, const U256& r);

/// Per-point Lim–Lee comb table, the same layout the generator's fixed-base
/// table uses: one block per 64-bit limb of the scalar, 8 teeth x 8 columns
/// in each, 4 x 255 affine entries (~64 KiB). Building one costs about 250
/// doublings and 1,000 mixed additions — roughly 5-6 generic scalar
/// multiplications — which amortizes once the same point is multiplied
/// more than about seven times (hot endorser public keys).
class PointCombTable {
 public:
  /// Precompute the table for P. An infinity P yields a table whose
  /// multiplies all return infinity.
  static PointCombTable build(const AffinePoint& p);

  const AffinePoint& point() const { return point_; }

  /// An affine entry, both coordinates in the Montgomery domain.
  struct Entry {
    U256 x;
    U256 y;
  };

  /// The entry comb digit `digit` (0..255) of block `block` (0..3) adds;
  /// null for digit 0, and for every digit of an infinity table.
  const Entry* entry(int block, unsigned digit) const;

  /// k * P via the comb: 7 doublings + <= 32 mixed additions (reduces k
  /// mod n first, like scalar_mult).
  JacobianPoint mult(const U256& k) const;

 private:
  friend JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                               const PointCombTable& q);

  PointCombTable() = default;

  /// acc += the entries that column col of k selects, one per block.
  void add_column(JacobianPoint& acc, const U256& k, int col) const;

  AffinePoint point_{{}, {}, true};
  /// Entry (b, d) for block b (0..3) and digit d (1..255), at index
  /// 255 b + d - 1: sum over set bits t of d of 2^(64b + 8t) * P.
  std::vector<Entry> entries_;
};

/// u1*G + u2*Q with Q on a prebuilt comb table: ONE shared 7-doubling
/// chain with both tables' lookups folded per column, <= 64 mixed additions
/// total. The generic joint-wNAF path pays ~256 doublings, so a table hit
/// makes verification several times cheaper — the per-identity ECDSA hot
/// path.
JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                      const PointCombTable& q);

/// One lane of double_scalar_mult_comb_batch: u1*G + u2*Q, or u1*G alone
/// when q is null.
struct CombLane {
  U256 u1;
  U256 u2;
  const PointCombTable* q = nullptr;
};

/// Every lane's u1*G + u2*Q, the same points double_scalar_mult_comb (or
/// base_mult, for a null q) gives, returned affine in the ordinary domain.
/// The lanes walk their combs in lockstep with affine accumulators: each
/// doubling or addition step inverts all lanes' slope denominators with one
/// field inversion (Montgomery's trick), which beats the per-lane Jacobian
/// formulas once enough lanes share it. Lanes whose accumulator is at
/// infinity or meets plus or minus the entry it adds are handled exactly.
/// Eight lanes per AVX-512 IFMA instruction where cpuid and the OS allow
/// it, else the portable walk; both hold the same values at every step.
std::vector<AffinePoint> double_scalar_mult_comb_batch(
    std::span<const CombLane> lanes);

namespace detail {
/// The portable walk behind double_scalar_mult_comb_batch: its fallback
/// and the tests' oracle.
std::vector<AffinePoint> double_scalar_mult_comb_batch_portable(
    std::span<const CombLane> lanes);
/// True when double_scalar_mult_comb_batch runs the eight-lane IFMA walk.
bool comb_ifma_kernel();

/// Eight field elements as the IFMA walk holds them: limb j (radix 2^52,
/// least significant first) of lane k at limb[j][k].
struct alignas(64) Fp8 {
  std::uint64_t limb[5][8];
};

inline void fp8_set(Fp8& a, int k, const U256& v) {
  constexpr std::uint64_t m = (std::uint64_t{1} << 52) - 1;
  a.limb[0][k] = v.w[0] & m;
  a.limb[1][k] = (v.w[0] >> 52 | v.w[1] << 12) & m;
  a.limb[2][k] = (v.w[1] >> 40 | v.w[2] << 24) & m;
  a.limb[3][k] = (v.w[2] >> 28 | v.w[3] << 36) & m;
  a.limb[4][k] = v.w[3] >> 16;
}

inline U256 fp8_get(const Fp8& a, int k) {
  const auto l = [&a, k](int j) { return a.limb[j][k]; };
  return {{l(0) | l(1) << 52, l(1) >> 12 | l(2) << 40, l(2) >> 24 | l(3) << 28,
           l(3) >> 36 | l(4) << 16}};
}

enum class Fp8Op { kMul, kSqr, kAdd, kSub };
/// Lane by lane, fp_mul(a, b), fp_sqr(a), fp_add(a, b) or fp_sub(a, b) in
/// the IFMA walk's field arithmetic, for its tests and benchmark. Only
/// where comb_ifma_kernel() is true (else it aborts); inputs must be < p.
Fp8 fp8_apply(Fp8Op op, const Fp8& a, const Fp8& b);
}  // namespace detail

/// True iff (x, y) satisfies the curve equation and both are < p.
bool on_curve(const AffinePoint& p);

}  // namespace bm::crypto
