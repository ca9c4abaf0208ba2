#include "crypto/p256.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define BM_P256_X86 1
#endif

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

/// The square of a before reduction: the six cross products computed once
/// and doubled, 10 limb products instead of 16.
[[gnu::always_inline]] inline U512 sqr_wide(const U256& a) {
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
  return U512{{x0, x1, x2, x3, x4, x5, x6, x7}};
}

#ifdef BM_P256_X86

/// cpuid leaf 7: bmi2 (mulx) and adx (adcx, adox).
bool cpu_has_bmi2_adx() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 8)) != 0 && (ebx & (1u << 19)) != 0;
}

/// Read once. Both kernels return the same limbs, so a product taken during
/// another static initialiser, before this one has run, merely takes the
/// portable path.
const bool kAdx = cpu_has_bmi2_adx();

/// cpuid: AVX512F and AVX512_IFMA (leaf 7), and an OS that saves the opmask
/// and zmm registers (OSXSAVE in leaf 1, then XCR0 bits 1, 2 and 5 to 7).
bool cpu_has_avx512_ifma() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & (1u << 27)) == 0)
    return false;
  unsigned xcr0 = 0, xcr0_hi = 0;
  asm("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0 & 0xe6) != 0xe6) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 16)) != 0 && (ebx & (1u << 21)) != 0;
}

/// Read once, like kAdx: both lockstep walks return the same points.
const bool kIfma = cpu_has_avx512_ifma();

// The ADX kernels below compute the 512-bit product or square into x0..x7
// and reduce it in the same asm block, so no limb leaves a register. They
// read the operands' limbs through two pointer registers and declare a
// memory clobber: one memory operand per limb can need an address register
// each (at -O0, -O1 and under ASan), and with the eleven register outputs
// that leaves the register allocator no solution.

// One row of the schoolbook product: x[i..i+4] += a * b[i], where B is
// b[i]'s byte offset. The low halves of the four limb products go up the
// adcx (CF) carry chain and the high halves up the adox (OF) chain, so the
// two chains run side by side; the xor clears both flags, and x[i+4]
// starts as the last high half.
#define BM_ADX_ROW(B, X0, X1, X2, X3, X4) \
  "movq " B "(%[b]), %%rdx\n\t"           \
  "xorq %[lo], %[lo]\n\t"                 \
  "mulxq (%[a]), %[lo], %[hi]\n\t"        \
  "adcxq %[lo], %[" X0 "]\n\t"            \
  "adoxq %[hi], %[" X1 "]\n\t"            \
  "mulxq 8(%[a]), %[lo], %[hi]\n\t"       \
  "adcxq %[lo], %[" X1 "]\n\t"            \
  "adoxq %[hi], %[" X2 "]\n\t"            \
  "mulxq 16(%[a]), %[lo], %[hi]\n\t"      \
  "adcxq %[lo], %[" X2 "]\n\t"            \
  "adoxq %[hi], %[" X3 "]\n\t"            \
  "mulxq 24(%[a]), %[lo], %[" X4 "]\n\t"  \
  "adcxq %[lo], %[" X3 "]\n\t"            \
  "movq $0, %[lo]\n\t"                    \
  "adoxq %[lo], %[" X4 "]\n\t"            \
  "adcxq %[lo], %[" X4 "]\n\t"

// One Montgomery round for p, as reduce_round: with q = X0, adds q * p,
// which clears X0, as q << 32 into X1, q >> 32 into X2 and q * p[3] into
// X3:X4, leaving the carry out of X4 in CF.
#define BM_ADX_REDUCE_ROUND(X0, X1, X2, X3, X4) \
  "movq %[" X0 "], %%rdx\n\t"                   \
  "mulxq %[p3], %[lo], %[hi]\n\t"               \
  "shlq $32, %[" X0 "]\n\t"                     \
  "shrq $32, %%rdx\n\t"                         \
  "addq %[" X0 "], %[" X1 "]\n\t"               \
  "adcq %%rdx, %[" X2 "]\n\t"                   \
  "adcq %[lo], %[" X3 "]\n\t"                   \
  "adcq %[hi], %[" X4 "]\n\t"

// Montgomery reduction of x0..x7 (below p * 2^256), as fe_reduce: four
// rounds, each carry run up to x7 and on into x0, which holds the bit above
// x7 once round 0 has freed it. The sum x4..x7 + 2^256 x0 is below 2p; it
// minus p, when that is not negative, lands in lo, hi, rdx, x1.
#define BM_ADX_REDUCE                                                      \
  BM_ADX_REDUCE_ROUND("x0", "x1", "x2", "x3", "x4")                        \
  "movq $0, %[x0]\n\t"                                                     \
  "adcq $0, %[x5]\n\t"                                                     \
  "adcq $0, %[x6]\n\t"                                                     \
  "adcq $0, %[x7]\n\t"                                                     \
  "adcq $0, %[x0]\n\t"                                                     \
  BM_ADX_REDUCE_ROUND("x1", "x2", "x3", "x4", "x5")                        \
  "adcq $0, %[x6]\n\t"                                                     \
  "adcq $0, %[x7]\n\t"                                                     \
  "adcq $0, %[x0]\n\t"                                                     \
  BM_ADX_REDUCE_ROUND("x2", "x3", "x4", "x5", "x6")                        \
  "adcq $0, %[x7]\n\t"                                                     \
  "adcq $0, %[x0]\n\t"                                                     \
  BM_ADX_REDUCE_ROUND("x3", "x4", "x5", "x6", "x7")                        \
  "adcq $0, %[x0]\n\t"                                                     \
  "movq %[x4], %[lo]\n\t"                                                  \
  "movq %[x5], %[hi]\n\t"                                                  \
  "movq %[x6], %%rdx\n\t"                                                  \
  "movq %[x7], %[x1]\n\t"                                                  \
  "movl $0xffffffff, %k[x2]\n\t" /* p[1]; p[0] is -1 and p[2] is 0 */     \
  "subq $-1, %[lo]\n\t"                                                    \
  "sbbq %[x2], %[hi]\n\t"                                                  \
  "sbbq $0, %%rdx\n\t"                                                     \
  "sbbq %[p3], %[x1]\n\t"                                                  \
  "sbbq $0, %[x0]\n\t"                                                     \
  "cmovcq %[x4], %[lo]\n\t"                                                \
  "cmovcq %[x5], %[hi]\n\t"                                                \
  "cmovcq %[x6], %%rdx\n\t"                                                \
  "cmovcq %[x7], %[x1]\n\t"

/// fe_mul with mulx/adcx/adox. Only for a CPU with bmi2 and adx.
[[gnu::always_inline]] inline U256 fe_mul_adx(const U256& a, const U256& b) {
  u64 x0, x1, x2, x3, x4, x5, x6, x7, lo, hi, rdx;
  asm("movq (%[b]), %%rdx\n\t"
      "mulxq (%[a]), %[x0], %[x1]\n\t"
      "mulxq 8(%[a]), %[lo], %[x2]\n\t"
      "addq %[lo], %[x1]\n\t"
      "mulxq 16(%[a]), %[lo], %[x3]\n\t"
      "adcq %[lo], %[x2]\n\t"
      "mulxq 24(%[a]), %[lo], %[x4]\n\t"
      "adcq %[lo], %[x3]\n\t"
      "adcq $0, %[x4]\n\t"
      BM_ADX_ROW("8", "x1", "x2", "x3", "x4", "x5")
      BM_ADX_ROW("16", "x2", "x3", "x4", "x5", "x6")
      BM_ADX_ROW("24", "x3", "x4", "x5", "x6", "x7")
      BM_ADX_REDUCE
      : [x0] "=&r"(x0), [x1] "=&r"(x1), [x2] "=&r"(x2), [x3] "=&r"(x3),
        [x4] "=&r"(x4), [x5] "=&r"(x5), [x6] "=&r"(x6), [x7] "=&r"(x7),
        [lo] "=&r"(lo), [hi] "=&r"(hi), [rdx] "=&d"(rdx)
      : [a] "r"(a.w.data()), [b] "r"(b.w.data()), [p3] "m"(kP.w[3])
      : "cc", "memory");
  return U256{{lo, hi, rdx, x1}};
}

/// fe_sqr with mulx/adcx/adox: the cross products as in fe_mul_adx, then
/// one pass that doubles them on the CF chain while the OF chain adds the
/// squares a_i^2. Only for a CPU with bmi2 and adx.
[[gnu::always_inline]] inline U256 fe_sqr_adx(const U256& a) {
  u64 x0, x1, x2, x3, x4, x5, x6, x7, lo, hi, rdx;
  asm(// Cross products a0 * (a1, a2, a3) into x1..x4.
      "movq (%[a]), %%rdx\n\t"
      "mulxq 8(%[a]), %[x1], %[x2]\n\t"
      "mulxq 16(%[a]), %[lo], %[x3]\n\t"
      "addq %[lo], %[x2]\n\t"
      "mulxq 24(%[a]), %[lo], %[x4]\n\t"
      "adcq %[lo], %[x3]\n\t"
      "adcq $0, %[x4]\n\t"
      // a1 * (a2, a3) into x3..x5.
      "movq 8(%[a]), %%rdx\n\t"
      "xorq %[lo], %[lo]\n\t"
      "mulxq 16(%[a]), %[lo], %[hi]\n\t"
      "adcxq %[lo], %[x3]\n\t"
      "adoxq %[hi], %[x4]\n\t"
      "mulxq 24(%[a]), %[lo], %[x5]\n\t"
      "adcxq %[lo], %[x4]\n\t"
      "movq $0, %[lo]\n\t"
      "adoxq %[lo], %[x5]\n\t"
      "adcxq %[lo], %[x5]\n\t"
      // a2 * a3 into x5..x6.
      "movq 16(%[a]), %%rdx\n\t"
      "mulxq 24(%[a]), %[lo], %[x6]\n\t"
      "addq %[lo], %[x5]\n\t"
      "adcq $0, %[x6]\n\t"
      // Double x1..x6 into x1..x7 (CF) and add the squares (OF). Each limb
      // is doubled before its square half is added.
      "xorq %[x7], %[x7]\n\t"
      "movq (%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[x0], %[hi]\n\t"
      "adcxq %[x1], %[x1]\n\t"
      "adoxq %[hi], %[x1]\n\t"
      "movq 8(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[x2], %[x2]\n\t"
      "adoxq %[lo], %[x2]\n\t"
      "adcxq %[x3], %[x3]\n\t"
      "adoxq %[hi], %[x3]\n\t"
      "movq 16(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[x4], %[x4]\n\t"
      "adoxq %[lo], %[x4]\n\t"
      "adcxq %[x5], %[x5]\n\t"
      "adoxq %[hi], %[x5]\n\t"
      "movq 24(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[x6], %[x6]\n\t"
      "adoxq %[lo], %[x6]\n\t"
      "adcxq %[x7], %[x7]\n\t"
      "adoxq %[hi], %[x7]\n\t"
      BM_ADX_REDUCE
      : [x0] "=&r"(x0), [x1] "=&r"(x1), [x2] "=&r"(x2), [x3] "=&r"(x3),
        [x4] "=&r"(x4), [x5] "=&r"(x5), [x6] "=&r"(x6), [x7] "=&r"(x7),
        [lo] "=&r"(lo), [hi] "=&r"(hi), [rdx] "=&d"(rdx)
      : [a] "r"(a.w.data()), [p3] "m"(kP.w[3])
      : "cc", "memory");
  return U256{{lo, hi, rdx, x1}};
}

#undef BM_ADX_ROW
#undef BM_ADX_REDUCE_ROUND
#undef BM_ADX_REDUCE

#else
constexpr bool kAdx = false, kIfma = false;
#endif  // BM_P256_X86

// The field product and square: the ADX kernel when cpuid offers it, else
// the portable one.
[[gnu::always_inline]] inline U256 fe_mul(const U256& a, const U256& b) {
#ifdef BM_P256_X86
  if (kAdx) return fe_mul_adx(a, b);
#endif
  return fe_reduce(mul_wide(a, b));
}

[[gnu::always_inline]] inline U256 fe_sqr(const U256& a) {
#ifdef BM_P256_X86
  if (kAdx) return fe_sqr_adx(a);
#endif
  return fe_reduce(sqr_wide(a));
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

// Bernstein–Yang safegcd inverse, variable time, in the shape of
// libsecp256k1's modinv64_var. Values are five signed 62-bit limbs. Each
// round runs 62 divsteps on the low limbs of f and g alone, then applies
// the resulting 2x2 matrix (scaled by 2^62) to all of f, g and to the
// coefficients d, e, which it keeps mod m. g reaches 0 after at most about
// 12 rounds for 256-bit inputs, leaving f = +-1 and d = +-a^-1.

using i64 = std::int64_t;
using i128 = __int128;

constexpr u64 kM62 = ~u64{0} >> 2;

struct Signed62 {
  i64 v[5];
};

struct SafegcdModulus {
  Signed62 m;
  u64 m_inv62;  ///< m^-1 mod 2^62
};

/// The divsteps' transition matrix, scaled by 2^62.
struct Trans2x2 {
  i64 u, v, q, r;
};

constexpr Signed62 to_signed62(const U256& a) {
  return Signed62{{static_cast<i64>(a.w[0] & kM62),
                   static_cast<i64>((a.w[0] >> 62 | a.w[1] << 2) & kM62),
                   static_cast<i64>((a.w[1] >> 60 | a.w[2] << 4) & kM62),
                   static_cast<i64>((a.w[2] >> 58 | a.w[3] << 6) & kM62),
                   static_cast<i64>(a.w[3] >> 56)}};
}

/// For limbs in [0, 2^62) holding a value below 2^256.
U256 from_signed62(const Signed62& a) {
  const auto l = [&a](int i) { return static_cast<u64>(a.v[i]); };
  return U256{{l(0) | l(1) << 62, l(1) >> 2 | l(2) << 60,
               l(2) >> 4 | l(3) << 58, l(3) >> 6 | l(4) << 56}};
}

constexpr SafegcdModulus safegcd_modulus(const U256& m) {
  u64 inv = m.w[0];  // right to 3 bits; each Newton step doubles that
  for (int i = 0; i < 5; ++i) inv *= 2 - m.w[0] * inv;
  return SafegcdModulus{to_signed62(m), inv & kM62};
}

constexpr SafegcdModulus kSafegcdP = safegcd_modulus(kP);
constexpr SafegcdModulus kSafegcdN = safegcd_modulus(kN);

/// 62 divsteps on the low bits of f (odd) and g, starting from eta (minus
/// delta); returns the new eta. A run of zero bits in g takes one shift,
/// and each other step cancels up to 6 low bits of g at once.
i64 divsteps_62_var(i64 eta, u64 f, u64 g, Trans2x2& t) {
  u64 u = 1, v = 0, q = 0, r = 1;
  int i = 62;
  for (;;) {
    // A sentinel bit at i caps the count at the steps left.
    const int zeros = __builtin_ctzll(g | (~u64{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are odd here.
    if (eta < 0) {
      // Swap in (g, -f) and negate eta.
      eta = -eta;
      u64 tmp = f;
      f = g;
      g = 0 - tmp;
      tmp = u;
      u = q;
      q = 0 - tmp;
      tmp = v;
      v = r;
      r = 0 - tmp;
    }
    // w = -g / f mod 64 makes g + w f divisible by 2^bits; bits is capped
    // by the steps left and by eta + 1, after which eta's sign flips again.
    const int bits = static_cast<int>(std::min<i64>({eta + 1, i, 6}));
    const u64 w = (f * g * (f * f - 2)) & (~u64{0} >> (64 - bits));
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = Trans2x2{static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
               static_cast<i64>(r)};
  return eta;
}

/// (d, e) = t (d, e) / 2^62 mod m, with inputs and outputs in (-2m, m): a
/// multiple of m chosen to clear the low 62 bits makes the division exact.
void update_de(Signed62& d, Signed62& e, const Trans2x2& t,
               const SafegcdModulus& mod) {
  const i64 sd = d.v[4] >> 63;
  const i64 se = e.v[4] >> 63;
  // Adding m for a negative d or e keeps the outputs above -2m.
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d.v[0] + static_cast<i128>(t.v) * e.v[0];
  i128 ce = static_cast<i128>(t.q) * d.v[0] + static_cast<i128>(t.r) * e.v[0];
  md -= static_cast<i64>(
      (mod.m_inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kM62);
  me -= static_cast<i64>(
      (mod.m_inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kM62);
  cd += static_cast<i128>(mod.m.v[0]) * md;
  ce += static_cast<i128>(mod.m.v[0]) * me;
  cd >>= 62;  // the low 62 bits are zero now
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t.u) * d.v[i] + static_cast<i128>(t.v) * e.v[i] +
          static_cast<i128>(mod.m.v[i]) * md;
    ce += static_cast<i128>(t.q) * d.v[i] + static_cast<i128>(t.r) * e.v[i] +
          static_cast<i128>(mod.m.v[i]) * me;
    d.v[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kM62);
    e.v[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<i64>(cd);
  e.v[4] = static_cast<i64>(ce);
}

/// (f, g) = t (f, g) / 2^62 over the low `len` limbs, exactly.
void update_fg(int len, Signed62& f, Signed62& g, const Trans2x2& t) {
  i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
  i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
  cf >>= 62;  // the divsteps made the low 62 bits zero
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
    cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kM62);
    g.v[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<i64>(cf);
  g.v[len - 1] = static_cast<i64>(cg);
}

/// Carry each limb's excess into the next, leaving limbs 0..3 in [0, 2^62).
void propagate_62(Signed62& r) {
  for (int i = 0; i < 4; ++i) {
    r.v[i + 1] += r.v[i] >> 62;
    r.v[i] &= static_cast<i64>(kM62);
  }
}

/// r in (-2m, m), negated when `sign` is negative, into [0, m).
Signed62 normalize_62(Signed62 r, i64 sign, const SafegcdModulus& mod) {
  i64 add_m = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += mod.m.v[i] & add_m;
  const i64 negate = sign >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] = (r.v[i] ^ negate) - negate;
  propagate_62(r);
  add_m = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += mod.m.v[i] & add_m;
  propagate_62(r);
  return r;
}

/// a^-1 mod m for a < m coprime to the odd m; 0 maps to 0.
U256 safegcd_inv(const U256& a, const SafegcdModulus& mod) {
  Signed62 d{};
  Signed62 e{{1}};
  Signed62 f = mod.m;
  Signed62 g = to_signed62(a);
  int len = 5;
  i64 eta = -1;
  for (;;) {
    Trans2x2 t{};
    eta = divsteps_62_var(eta, static_cast<u64>(f.v[0]),
                          static_cast<u64>(g.v[0]), t);
    update_de(d, e, t, mod);
    update_fg(len, f, g, t);
    if (g.v[0] == 0) {
      i64 rest = 0;
      for (int j = 1; j < len; ++j) rest |= g.v[j];
      if (rest == 0) break;
    }
    // Drop the top limb once it is 0 or -1 in both f and g, folding its
    // sign into the limb below.
    const i64 fn = f.v[len - 1];
    const i64 gn = g.v[len - 1];
    if (len > 1 && ((fn ^ (fn >> 63)) | (gn ^ (gn >> 63))) == 0) {
      f.v[len - 2] = static_cast<i64>(static_cast<u64>(f.v[len - 2]) |
                                      static_cast<u64>(fn) << 62);
      g.v[len - 2] = static_cast<i64>(static_cast<u64>(g.v[len - 2]) |
                                      static_cast<u64>(gn) << 62);
      --len;
    }
  }
  // g = 0 leaves f = +-gcd = +-1; its sign says whether d is +-a^-1.
  return from_signed62(normalize_62(d, f.v[len - 1], mod));
}

}  // namespace

namespace detail {

U256 fp_mul_portable(const U256& a, const U256& b) {
  return fe_reduce(mul_wide(a, b));
}

U256 fp_sqr_portable(const U256& a) { return fe_reduce(sqr_wide(a)); }

bool fp_adx_kernel() { return kAdx; }

bool comb_ifma_kernel() { return kIfma; }

}  // namespace detail

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
  // (a R)^-1 = a^-1 R^-1; two products with R^2 bring it to a^-1 R.
  return fe_mul(fe_mul(safegcd_inv(a, kSafegcdP), kR2ModP), kR2ModP);
}

U256 fn_add(const U256& a, const U256& b) { return add_mod(a, b, kN); }

U256 fn_mul(const U256& a, const U256& b) {
  const U256 abr = mont_reduce(mul_wide(a, b), kN, kNInv0);  // a b R^-1
  return mont_reduce(mul_wide(abr, kR2ModN), kN, kNInv0);
}

U256 fn_inv(const U256& a) { return safegcd_inv(a, kSafegcdN); }

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

/// Mixed addition (madd-2007-bl shape, Z2 = 1) with a finite q given by
/// Montgomery-domain coordinates, as the precomputed tables store it.
JacobianPoint add_mont_affine(const JacobianPoint& p, const U256& qx,
                              const U256& qy) {
  if (p.is_infinity()) return JacobianPoint{qx, qy, kPOne};
  const U256 z1z1 = fe_sqr(p.z);
  const U256 u2 = fe_mul(qx, z1z1);
  const U256 s2 = fe_mul(qy, fe_mul(z1z1, p.z));
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
  return add_mont_affine(p, fp_to_mont(q.x), fp_to_mont(q.y));
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
// The comb: one block per 64-bit limb of the scalar, 8 teeth 8 bits apart
// in each, so a multiply walks 8 columns (7 doublings) and adds at most one
// entry per block and column (32).
constexpr int kCombBlocks = 4;
constexpr int kCombTeeth = 8;
constexpr int kCombSpacing = 8;               ///< columns: 64 / kCombTeeth
constexpr int kCombEntries = (1 << kCombTeeth) - 1;  ///< per block

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

/// Comb digit of one block at column col: bit 8t + col of the limb selects
/// tooth t. The mask keeps bits col, col + 8, ..., col + 56, and the
/// multiply gathers bit 8t into bit 56 + t; no two partial products meet
/// in the top byte, so nothing carries into it.
unsigned block_digit(u64 limb, int col) {
  return static_cast<unsigned>(
      ((limb >> col) & 0x0101010101010101) * 0x0102040810204080 >> 56);
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

PointCombTable PointCombTable::build(const AffinePoint& p) {
  PointCombTable tbl;
  tbl.point_ = p;
  if (p.infinity) return tbl;
  // The 32 teeth 2^(8j) P, j = 8 * block + tooth, made affine together.
  std::vector<JacobianPoint> chain(kCombBlocks * kCombTeeth);
  chain[0] = to_jacobian(p);
  for (std::size_t j = 1; j < chain.size(); ++j) {
    chain[j] = chain[j - 1];
    for (int i = 0; i < kCombSpacing; ++i) chain[j] = point_double(chain[j]);
  }
  const std::vector<AffinePoint> teeth = batch_normalize(chain);
  // Entry d of a block adds its lowest tooth to the entry without it.
  std::vector<JacobianPoint> sums(kCombBlocks * kCombEntries);
  for (int b = 0; b < kCombBlocks; ++b) {
    JacobianPoint* block = &sums[static_cast<std::size_t>(b * kCombEntries)];
    for (unsigned d = 1; d <= kCombEntries; ++d) {
      const unsigned t = static_cast<unsigned>(__builtin_ctz(d));
      const AffinePoint& tooth = teeth[b * kCombTeeth + t];
      const unsigned rest = d & (d - 1);
      block[d - 1] = rest == 0 ? JacobianPoint{tooth.x, tooth.y, kPOne}
                               : add_mont_affine(block[rest - 1], tooth.x,
                                                 tooth.y);
    }
  }
  const std::vector<AffinePoint> affine = batch_normalize(sums);
  tbl.entries_.reserve(affine.size());
  for (const AffinePoint& a : affine) tbl.entries_.push_back({a.x, a.y});
  return tbl;
}

const PointCombTable::Entry* PointCombTable::entry(int block,
                                                    unsigned digit) const {
  if (digit == 0 || entries_.empty()) return nullptr;
  return &entries_[static_cast<std::size_t>(block * kCombEntries) + digit - 1];
}

void PointCombTable::add_column(JacobianPoint& acc, const U256& k,
                                int col) const {
  for (int b = 0; b < kCombBlocks; ++b)
    if (const Entry* e = entry(b, block_digit(k.w[b], col)))
      acc = add_mont_affine(acc, e->x, e->y);
}

JacobianPoint PointCombTable::mult(const U256& k) const {
  const U256 kr = reduce_mod_n(k);
  if (kr.is_zero() || point_.infinity) return JacobianPoint{};
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    add_column(acc, kr, col);
  }
  return acc;
}

namespace {

const PointCombTable& base_comb_table() {
  static const PointCombTable tbl = PointCombTable::build(kG);
  return tbl;
}

}  // namespace

JacobianPoint base_mult(const U256& k) { return base_comb_table().mult(k); }

JacobianPoint double_scalar_mult_comb(const U256& u1, const U256& u2,
                                      const PointCombTable& q) {
  const U256 u1r = reduce_mod_n(u1);
  const U256 u2r = q.point().infinity ? U256{} : reduce_mod_n(u2);
  if (u2r.is_zero()) return base_mult(u1r);
  if (u1r.is_zero()) return q.mult(u2r);
  const PointCombTable& g = base_comb_table();
  JacobianPoint acc{};
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    acc = point_double(acc);
    g.add_column(acc, u1r, col);
    q.add_column(acc, u2r, col);
  }
  return acc;
}

namespace {

/// A lane's pending slope in one step: lambda = num / den, and x2, the
/// other operand's x (the lane's own x for a doubling).
struct Slope {
  U256 num;
  U256 den;
  U256 prefix;  ///< product of the earlier live lanes' denominators
  const U256* x2;
};

/// One lockstep step over the lanes' affine, Montgomery-domain accumulators:
/// acc[i] += *add[i] where add[i] is non-null (null leaves the lane), or,
/// with no `add` at all, acc[i] = 2 acc[i]. The lanes that need a slope
/// share one field inversion.
void lockstep_step(std::vector<AffinePoint>& acc,
                   const PointCombTable::Entry* const* add,
                   std::vector<Slope>& slopes, std::vector<std::size_t>& live) {
  live.clear();
  const auto set_doubling = [&](std::size_t i) {
    // lambda = (3x^2 + a) / 2y with a = -3; P-256 has no point with y = 0.
    const U256& x = acc[i].x;
    const U256 t = fe_mul(fe_sub(x, kPOne), fe_add(x, kPOne));
    slopes[i].num = fe_add(fe_add(t, t), t);
    slopes[i].den = fe_add(acc[i].y, acc[i].y);
    slopes[i].x2 = &x;
    live.push_back(i);
  };
  for (std::size_t i = 0; i < acc.size(); ++i) {
    AffinePoint& a = acc[i];
    if (add == nullptr) {
      if (!a.infinity) set_doubling(i);
      continue;
    }
    const PointCombTable::Entry* e = add[i];
    if (e == nullptr) continue;
    if (a.infinity) {
      a = AffinePoint{e->x, e->y, false};
    } else if (a.x != e->x) {
      slopes[i].num = fe_sub(e->y, a.y);
      slopes[i].den = fe_sub(e->x, a.x);
      slopes[i].x2 = &e->x;
      live.push_back(i);
    } else if (a.y == e->y) {
      set_doubling(i);  // the accumulator meets the entry itself
    } else {
      a = AffinePoint{{}, {}, true};  // ... or its negation
    }
  }
  if (live.empty()) return;
  U256 product = kPOne;
  for (const std::size_t i : live) {
    slopes[i].prefix = product;
    product = fe_mul(product, slopes[i].den);
  }
  U256 inv = fp_inv(product);
  for (std::size_t j = live.size(); j-- > 0;) {
    const std::size_t i = live[j];
    Slope& s = slopes[i];
    const U256 lambda = fe_mul(s.num, fe_mul(inv, s.prefix));
    inv = fe_mul(inv, s.den);
    AffinePoint& a = acc[i];
    const U256 x3 = fe_sub(fe_sub(fe_sqr(lambda), a.x), *s.x2);
    a.y = fe_sub(fe_mul(lambda, fe_sub(a.x, x3)), a.y);
    a.x = x3;
  }
}

/// Both walks' schedule, double_scalar_mult_comb's column order on scalars
/// reduced as there: step(nullptr) doubles every lane, step(add) adds each
/// lane's entry (null: none) for one block of G's, then of Q's comb.
template <class Step>
void comb_schedule(std::span<const CombLane> lanes, Step&& step) {
  const std::size_t n = lanes.size();
  std::vector<U256> u1(n), u2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CombLane& lane = lanes[i];
    u1[i] = reduce_mod_n(lane.u1);
    if (lane.q != nullptr && !lane.q->point().infinity)
      u2[i] = reduce_mod_n(lane.u2);
  }
  const PointCombTable& g = base_comb_table();
  std::vector<const PointCombTable::Entry*> add(n);
  const auto add_block = [&](bool base, int b, int col) {
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned d = block_digit((base ? u1 : u2)[i].w[b], col);
      add[i] = d == 0 ? nullptr : (base ? g : *lanes[i].q).entry(b, d);
      any |= add[i] != nullptr;
    }
    if (any) step(add.data());
  };
  for (int col = kCombSpacing - 1; col >= 0; --col) {
    step(nullptr);
    for (int b = 0; b < kCombBlocks; ++b) add_block(true, b, col);
    for (int b = 0; b < kCombBlocks; ++b) add_block(false, b, col);
  }
}

#ifdef BM_P256_X86

// The eight-lane walk: five zmm registers hold eight field elements, one
// 52-bit limb of every lane each, so one vpmadd52luq or vpmadd52huq serves
// eight lanes. R is the scalar code's 2^256 and every result is fully
// reduced, so each lane holds, limb for limb, what the portable walk holds.
// Only these functions carry the target attribute; kIfma picks the walk.

#define BM_IFMA gnu::target("avx512f,avx512ifma")

/// Eight 64-bit lanes (GCC vector extensions: the operators act lane by
/// lane and broadcast a scalar operand).
using V = u64 __attribute__((vector_size(64)));
using VSigned = std::int64_t __attribute__((vector_size(64)));

/// Eight field elements in registers: limb j of every lane in v[j].
struct F8 {
  V v[5];
};

constexpr u64 kMask52 = (u64{1} << 52) - 1;
/// p in radix 2^52. Its low 96 bits are ones, so -p^-1 = 1 mod 2^52 and
/// each Montgomery round's multiplier is the limb it clears.
constexpr u64 kP52[5] = {kMask52, (u64{1} << 44) - 1, 0, u64{1} << 36,
                         0xffffffff0000};

[[gnu::always_inline, BM_IFMA]] inline void madd52(V& lo, V& hi, V a, V b) {
  lo = (V)_mm512_madd52lo_epu64((__m512i)lo, (__m512i)a, (__m512i)b);
  hi = (V)_mm512_madd52hi_epu64((__m512i)hi, (__m512i)a, (__m512i)b);
}

[[gnu::always_inline, BM_IFMA]] inline F8 load8(const detail::Fp8& a) {
  return std::bit_cast<F8>(a);
}

[[gnu::always_inline, BM_IFMA]] inline void store8(detail::Fp8& a, F8 r) {
  a = std::bit_cast<detail::Fp8>(r);
}

/// Lane by lane, b where k is set, else a.
[[gnu::always_inline, BM_IFMA]] inline F8 blend8(__mmask8 k, F8 a, F8 b) {
  for (int j = 0; j < 5; ++j)
    a.v[j] = (V)_mm512_mask_blend_epi64(k, (__m512i)a.v[j], (__m512i)b.v[j]);
  return a;
}

[[gnu::always_inline, BM_IFMA]] inline __mmask8 eq8(const F8& a, const F8& b) {
  __mmask8 k = 0xff;
  for (int j = 0; j < 5; ++j)
    k = _mm512_mask_cmpeq_epu64_mask(k, (__m512i)a.v[j], (__m512i)b.v[j]);
  return k;
}

/// Carries signed limb excesses upward, leaving 52-bit limbs; returns the
/// carry out of limb 4, all ones in a lane whose value went negative.
[[gnu::always_inline, BM_IFMA]] inline V carry52(F8& r) {
  V c{};
  for (int j = 0; j < 5; ++j) {
    r.v[j] += c;
    c = (V)((VSigned)r.v[j] >> 52);
    r.v[j] &= kMask52;
  }
  return c;
}

/// r - p where that is not negative, else r; r < 2p in 52-bit limbs.
[[gnu::always_inline, BM_IFMA]] inline F8 sub_p_once(const F8& r) {
  F8 d = r;
  for (int j = 0; j < 5; ++j) d.v[j] -= kP52[j];
  const V below = carry52(d);
  for (int j = 0; j < 5; ++j) d.v[j] = (d.v[j] & ~below) | (r.v[j] & below);
  return d;
}

[[gnu::always_inline, BM_IFMA]] inline F8 add8(F8 a, const F8& b) {
  for (int j = 0; j < 5; ++j) a.v[j] += b.v[j];
  carry52(a);
  return sub_p_once(a);
}

[[gnu::always_inline, BM_IFMA]] inline F8 sub8(F8 a, const F8& b) {
  for (int j = 0; j < 5; ++j) a.v[j] -= b.v[j];
  // A negative lane holds a - b + 2^260; adding p carries out of limb 4.
  const V negative = carry52(a);
  for (int j = 0; j < 5; ++j) a.v[j] += negative & kP52[j];
  carry52(a);
  return a;
}

/// t 2^-256 mod p for the ten-limb t < p 2^256 (limbs below 2^57): four
/// 52-bit Montgomery rounds and one 48-bit round, as R = 2^208 2^48.
[[gnu::always_inline, BM_IFMA]] inline F8 redc8(V (&t)[10]) {
  for (int i = 0; i < 5; ++i) {
    // q p = q (2^96 - 1) + q 2^192 + q p4 2^208 added at limb i: the -q
    // clears limb i's low bits, and rounds 0 to 3 carry the rest up.
    const V q = t[i] & (i < 4 ? kMask52 : kMask52 >> 4);
    if (i < 4)
      t[i + 1] += t[i] >> 52;
    else
      t[i] -= q;
    t[i + 1] += q << 44 & kMask52;
    t[i + 2] += q >> 8;
    t[i + 3] += q << 36 & kMask52;
    t[i + 4] += q >> 16;
    madd52(t[i + 4], t[i + 5], q, V{} + kP52[4]);
  }
  // The result, below 2p, is limbs 4 to 9 shifted right by 48 bits.
  for (int j = 4; j < 9; ++j) {
    t[j + 1] += t[j] >> 52;
    t[j] &= kMask52;
  }
  F8 r;
  for (int j = 0; j < 5; ++j)
    r.v[j] = t[4 + j] >> 48 | (t[5 + j] << 4 & kMask52);
  return sub_p_once(r);
}

[[gnu::always_inline, BM_IFMA]] inline F8 mul8(const F8& a, const F8& b) {
  V t[10] = {};
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) madd52(t[i + j], t[i + j + 1], a.v[i], b.v[j]);
  return redc8(t);
}

/// The U256 at byte `offset` of each entry (x at 0, y at 32) whose address
/// the lanes in `has` hold, as 52-bit limbs; zero in the other lanes.
[[gnu::always_inline, BM_IFMA]] inline F8 gather8(V where, __mmask8 has,
                                                  int offset) {
  V w[4];
  for (int i = 0; i < 4; ++i)
    w[i] = (V)_mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), has,
        (__m512i)(where + static_cast<u64>(offset + 8 * i)), nullptr, 1);
  return F8{{w[0] & kMask52, (w[0] >> 52 | w[1] << 12) & kMask52,
             (w[1] >> 40 | w[2] << 24) & kMask52,
             (w[2] >> 28 | w[3] << 36) & kMask52, w[3] >> 16}};
}

[[BM_IFMA]] detail::Fp8 fp8_apply_ifma(detail::Fp8Op op,
                                        const detail::Fp8& a,
                                        const detail::Fp8& b) {
  using Op = detail::Fp8Op;
  const F8 x = load8(a), y = load8(b);
  detail::Fp8 out;
  store8(out, op == Op::kMul   ? mul8(x, y)
              : op == Op::kSqr ? mul8(x, x)
              : op == Op::kAdd ? add8(x, y)
                               : sub8(x, y));
  return out;
}

/// Eight lanes of the walk: affine, Montgomery-domain accumulators and the
/// slope each live lane takes in the current step, as Slope holds it.
struct LaneGroup {
  detail::Fp8 x{}, y{}, num{}, den{}, x2{}, prefix{};
  std::uint8_t infinity = 0xff;  ///< bit k: lane k's accumulator
  std::uint8_t live = 0;         ///< bit k: lane k takes a slope this step
};

/// lockstep_step over groups of eight of the n lanes, with the same outcome
/// per lane: Montgomery's trick runs as eight chains, one per lane position,
/// whose totals share the one field inversion.
[[BM_IFMA]] void lockstep_step8(std::vector<LaneGroup>& groups,
                                const PointCombTable::Entry* const* add,
                                std::size_t n) {
  detail::Fp8 lanes;
  for (int k = 0; k < 8; ++k) detail::fp8_set(lanes, k, kPOne);
  const F8 one = load8(lanes);
  F8 chain = one;
  bool any = false;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    LaneGroup& lg = groups[g];
    F8 x = load8(lg.x), y = load8(lg.y), num = x, den = y, x2 = x;
    __mmask8 inf = lg.infinity;
    __mmask8 dbl = static_cast<__mmask8>(~inf), live = dbl;
    if (add != nullptr) {
      V where{};
      for (std::size_t k = 0; k < 8 && 8 * g + k < n; ++k)
        where[k] = reinterpret_cast<std::uintptr_t>(add[8 * g + k]);
      const __mmask8 has =
          _mm512_test_epi64_mask((__m512i)where, (__m512i)where);
      const F8 ex = gather8(where, has, 0), ey = gather8(where, has, 32);
      const __mmask8 set = has & inf;  // an accumulator at infinity takes it
      const __mmask8 fin = has & ~inf;
      x = blend8(set, x, ex);
      y = blend8(set, y, ey);
      const __mmask8 eqx = eq8(x, ex) & fin;
      dbl = eqx & eq8(y, ey);              // meets the entry itself ...
      inf = (inf & ~set) | (eqx & ~dbl);  // ... or its negation
      live = (fin & ~eqx) | dbl;
      num = sub8(ey, y);
      den = sub8(ex, x);
      x2 = ex;
    }
    if (dbl != 0) {  // lambda = (3x^2 + a) / 2y with a = -3
      const F8 t = mul8(sub8(x, one), add8(x, one));
      num = blend8(dbl, num, add8(add8(t, t), t));
      den = blend8(dbl, den, add8(y, y));
      x2 = blend8(dbl, x2, x);
    }
    den = blend8(live, one, den);  // a lane without a slope multiplies in one
    store8(lg.prefix, chain);
    chain = mul8(chain, den);
    store8(lg.x, x);
    store8(lg.y, y);
    store8(lg.num, num);
    store8(lg.den, den);
    store8(lg.x2, x2);
    lg.infinity = inf;
    lg.live = live;
    any |= live != 0;
  }
  if (!any) return;
  store8(lanes, chain);
  U256 prefix[8];
  U256 product = kPOne;
  for (int k = 0; k < 8; ++k) {
    prefix[k] = product;
    product = fe_mul(product, detail::fp8_get(lanes, k));
  }
  U256 inv = fp_inv(product);
  for (int k = 8; k-- > 0;) {
    const U256 total = detail::fp8_get(lanes, k);
    detail::fp8_set(lanes, k, fe_mul(inv, prefix[k]));
    inv = fe_mul(inv, total);
  }
  chain = load8(lanes);
  for (std::size_t g = groups.size(); g-- > 0;) {
    LaneGroup& lg = groups[g];
    if (lg.live == 0) continue;  // its denominators are all one
    const F8 lambda = mul8(load8(lg.num), mul8(chain, load8(lg.prefix)));
    chain = mul8(chain, load8(lg.den));
    const F8 x = load8(lg.x), y = load8(lg.y);
    const F8 x3 = sub8(sub8(mul8(lambda, lambda), x), load8(lg.x2));
    store8(lg.y, blend8(lg.live, y, sub8(mul8(lambda, sub8(x, x3)), y)));
    store8(lg.x, blend8(lg.live, x, x3));
  }
}

#undef BM_IFMA

#endif  // BM_P256_X86

}  // namespace

namespace detail {

std::vector<AffinePoint> double_scalar_mult_comb_batch_portable(
    std::span<const CombLane> lanes) {
  std::vector<AffinePoint> acc(lanes.size(), AffinePoint{{}, {}, true});
  std::vector<Slope> slopes(lanes.size());
  std::vector<std::size_t> live;
  live.reserve(lanes.size());
  comb_schedule(lanes, [&](const PointCombTable::Entry* const* add) {
    lockstep_step(acc, add, slopes, live);
  });
  for (AffinePoint& a : acc) {
    if (a.infinity) continue;
    a.x = fp_from_mont(a.x);
    a.y = fp_from_mont(a.y);
  }
  return acc;
}

Fp8 fp8_apply([[maybe_unused]] Fp8Op op, [[maybe_unused]] const Fp8& a,
              [[maybe_unused]] const Fp8& b) {
#ifdef BM_P256_X86
  if (kIfma) return fp8_apply_ifma(op, a, b);
#endif
  std::abort();  // only where comb_ifma_kernel() is true
}

}  // namespace detail

std::vector<AffinePoint> double_scalar_mult_comb_batch(
    std::span<const CombLane> lanes) {
#ifdef BM_P256_X86
  if (kIfma) {
    const std::size_t n = lanes.size();
    std::vector<LaneGroup> groups((n + 7) / 8);
    comb_schedule(lanes, [&](const PointCombTable::Entry* const* add) {
      lockstep_step8(groups, add, n);
    });
    std::vector<AffinePoint> out(n, AffinePoint{{}, {}, true});
    for (std::size_t i = 0; i < n; ++i) {
      const LaneGroup& lg = groups[i / 8];
      const int k = static_cast<int>(i % 8);
      if ((lg.infinity >> k & 1) == 0)
        out[i] = {fp_from_mont(detail::fp8_get(lg.x, k)),
                  fp_from_mont(detail::fp8_get(lg.y, k)), false};
    }
    return out;
  }
#endif
  return detail::double_scalar_mult_comb_batch_portable(lanes);
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
      acc = add_mont_affine(acc, g.x, d > 0 ? g.y : fe_neg(g.y));
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
