#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/p256.hpp"
#include "crypto/u256.hpp"

namespace bm::crypto {
namespace {

U256 random_u256(Rng& rng) {
  U256 r;
  for (auto& w : r.w) w = rng.next_u64();
  return r;
}

TEST(U256, FromHexAndBytes) {
  const U256 v = U256::from_hex("0123456789abcdef");
  EXPECT_EQ(v.w[0], 0x0123456789abcdefull);
  EXPECT_EQ(v.w[1], 0u);

  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const U256 x = random_u256(rng);
    EXPECT_EQ(U256::from_bytes_be(x.to_bytes_be()), x);
  }
}

TEST(U256, HexRoundTripViaBytes) {
  const U256 x = U256::from_hex(
      "ffffffff00000001000000000000000000000000fffffffffffffffffffffffe");
  EXPECT_EQ(x.to_bytes_be()[31], 0xfe);
  EXPECT_EQ(x.to_bytes_be()[0], 0xff);
}

TEST(U256, CompareAndBits) {
  const U256 a = U256::from_u64(5);
  const U256 b = U256::from_u64(7);
  EXPECT_EQ(cmp(a, b), -1);
  EXPECT_EQ(cmp(b, a), 1);
  EXPECT_EQ(cmp(a, a), 0);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(2));
  EXPECT_EQ(a.top_bit(), 2);
  EXPECT_EQ(U256{}.top_bit(), -1);
  EXPECT_TRUE(U256{}.is_zero());
}

TEST(U256, AddSubInverse) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const U256 a = random_u256(rng);
    const U256 b = random_u256(rng);
    U256 sum, back;
    const std::uint64_t carry = add(sum, a, b);
    const std::uint64_t borrow = sub(back, sum, b);
    EXPECT_EQ(back, a);
    // carry out of a+b equals borrow of (a+b)-b wrapping behaviour
    EXPECT_EQ(carry, borrow);
  }
}

TEST(U256, MulWideMatchesSmallProducts) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const U512 p = mul_wide(U256::from_u64(a), U256::from_u64(b));
    const unsigned __int128 expected =
        static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(p.w[0], static_cast<std::uint64_t>(expected));
    EXPECT_EQ(p.w[1], static_cast<std::uint64_t>(expected >> 64));
    for (int j = 2; j < 8; ++j) EXPECT_EQ(p.w[j], 0u);
  }
}

TEST(U256, ModAgainstSmallOracle) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const std::uint64_t m = rng.next_u64() | 1;
    const U512 wide = mul_wide(U256::from_u64(a), U256::from_u64(b));
    const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(mod(wide, U256::from_u64(m)),
              U256::from_u64(static_cast<std::uint64_t>(prod % m)));
  }
}

TEST(U256, ModularAlgebra) {
  // (a + b) - b == a, (a*b) mod m == (b*a) mod m, distributivity.
  Rng rng(5);
  const U256 m = p256_n();
  for (int i = 0; i < 100; ++i) {
    const U256 a = mod(random_u256(rng), m);
    const U256 b = mod(random_u256(rng), m);
    const U256 c = mod(random_u256(rng), m);
    EXPECT_EQ(sub_mod(add_mod(a, b, m), b, m), a);
    EXPECT_EQ(mul_mod(a, b, m), mul_mod(b, a, m));
    // a*(b+c) == a*b + a*c (mod m)
    EXPECT_EQ(mul_mod(a, add_mod(b, c, m), m),
              add_mod(mul_mod(a, b, m), mul_mod(a, c, m), m));
  }
}

TEST(U256, PowModIdentities) {
  const U256 m = p256_p();
  Rng rng(6);
  const U256 a = mod(random_u256(rng), m);
  EXPECT_EQ(pow_mod(a, U256::from_u64(0), m), U256::from_u64(1));
  EXPECT_EQ(pow_mod(a, U256::from_u64(1), m), a);
  EXPECT_EQ(pow_mod(a, U256::from_u64(2), m), mul_mod(a, a, m));
}

TEST(U256, InverseModPrime) {
  Rng rng(7);
  for (const U256& m : {p256_p(), p256_n()}) {
    for (int i = 0; i < 20; ++i) {
      U256 a = mod(random_u256(rng), m);
      if (a.is_zero()) a = U256::from_u64(1);
      const U256 inv = inv_mod_prime(a, m);
      EXPECT_EQ(mul_mod(a, inv, m), U256::from_u64(1));
    }
  }
}

/// Values that stress carries and the final conditional subtraction: 0, 1,
/// 2, m - 1, m - 2, 2^255, 2^256 mod m and m with its low limb cleared.
std::vector<U256> edge_values(const U256& m) {
  std::vector<U256> out = {U256{}, U256::from_u64(1), U256::from_u64(2)};
  U256 v;
  sub(v, m, U256::from_u64(1));
  out.push_back(v);
  sub(v, m, U256::from_u64(2));
  out.push_back(v);
  U256 top;
  top.w[3] = std::uint64_t{1} << 63;
  out.push_back(mod(top, m));
  sub(v, U256{}, m);  // 2^256 - m
  out.push_back(mod(v, m));
  v = m;
  v.w[0] = 0;
  out.push_back(v);
  return out;
}

/// a * 2^256 mod m by generic division.
U256 times_r(const U256& a, const U256& m) {
  U512 shifted;
  for (int i = 0; i < 4; ++i) shifted.w[4 + i] = a.w[i];
  return mod(shifted, m);
}

TEST(U256, MontgomeryReductionOnRandomOddModuli) {
  // r = mont_reduce(t) must satisfy r < m and r * 2^256 == t (mod m).
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    U256 m = random_u256(rng);
    m.w[0] |= 1;
    if (i % 3 == 0) m.w[3] |= std::uint64_t{1} << 63;
    if (m.w[3] == 0) m.w[3] = 1;
    std::uint64_t inv = 1;  // Newton: doubles the correct low bits per step
    for (int k = 0; k < 6; ++k) inv *= 2 - m.w[0] * inv;
    const U256 a = mod(random_u256(rng), m);
    const U256 b = i % 5 == 0 ? a : mod(random_u256(rng), m);
    const U512 t = mul_wide(a, b);
    const U256 r = mont_reduce(t, m, 0 - inv);
    EXPECT_LT(cmp(r, m), 0) << "iteration " << i;
    EXPECT_EQ(times_r(r, m), mod(t, m)) << "iteration " << i;
  }
}

TEST(U256, BinaryInverseMatchesFermat) {
  Rng rng(12);
  for (const U256& m : {p256_p(), p256_n()}) {
    std::vector<U256> inputs = edge_values(m);
    for (int i = 0; i < 40; ++i) inputs.push_back(mod(random_u256(rng), m));
    for (const U256& a : inputs) {
      if (a.is_zero()) {
        EXPECT_EQ(inv_mod(a, m), U256{});
        continue;
      }
      const U256 inv = inv_mod(a, m);
      EXPECT_EQ(inv, inv_mod_prime(a, m));
      EXPECT_EQ(mul_mod(a, inv, m), U256::from_u64(1));
    }
  }
  // No inverse when a shares a factor with m.
  EXPECT_EQ(inv_mod(U256::from_u64(5), U256::from_u64(15)), U256{});
  EXPECT_EQ(inv_mod(U256::from_u64(2), U256::from_u64(15)), U256::from_u64(8));
}

TEST(P256, MontgomeryDomainRoundTrip) {
  Rng rng(8);
  const U256& p = p256_p();
  std::vector<U256> inputs = edge_values(p);
  for (int i = 0; i < 300; ++i) inputs.push_back(mod(random_u256(rng), p));
  for (const U256& a : inputs) {
    EXPECT_EQ(fp_to_mont(a), times_r(a, p));
    EXPECT_EQ(fp_from_mont(fp_to_mont(a)), a);
  }
}

TEST(P256, FieldOpsMatchGenericDivision) {
  // Montgomery products, mapped back to the ordinary domain, against the
  // Knuth-division reference; edge values crossed with each other. Both
  // product kernels run: the one fp_mul and fp_sqr dispatch to and the
  // portable one.
  Rng rng(9);
  const U256& p = p256_p();
  std::vector<U256> inputs = edge_values(p);
  for (int i = 0; i < 60; ++i) inputs.push_back(mod(random_u256(rng), p));
  struct Kernel {
    U256 (*mul)(const U256&, const U256&);
    U256 (*sqr)(const U256&);
  };
  for (const Kernel k : {Kernel{fp_mul, fp_sqr},
                         Kernel{detail::fp_mul_portable,
                                detail::fp_sqr_portable}}) {
    for (const U256& a : inputs) {
      const U256 am = fp_to_mont(a);
      for (const U256& b : inputs) {
        EXPECT_EQ(fp_from_mont(k.mul(am, fp_to_mont(b))), mul_mod(a, b, p));
        EXPECT_EQ(k.mul(a, b), k.mul(b, a));
      }
      EXPECT_EQ(fp_from_mont(k.sqr(am)), mul_mod(a, a, p));
      EXPECT_EQ(k.sqr(a), k.mul(a, a));
    }
  }
  for (const U256& a : inputs) {
    for (const U256& b : inputs) {
      EXPECT_EQ(fp_add(a, b), add_mod(a, b, p));
      EXPECT_EQ(fp_sub(a, b), sub_mod(a, b, p));
    }
    const U256 am = fp_to_mont(a);
    if (a.is_zero()) {
      EXPECT_EQ(fp_inv(am), U256{});
    } else {
      EXPECT_EQ(fp_from_mont(fp_inv(am)), inv_mod_prime(a, p));
      EXPECT_EQ(fp_mul(am, fp_inv(am)), fp_to_mont(U256::from_u64(1)));
    }
  }
}

TEST(P256, ScalarFieldMatchesGenericDivision) {
  Rng rng(13);
  const U256& n = p256_n();
  std::vector<U256> inputs = edge_values(n);
  for (int i = 0; i < 60; ++i) inputs.push_back(mod(random_u256(rng), n));
  for (const U256& a : inputs) {
    for (const U256& b : inputs) {
      EXPECT_EQ(fn_mul(a, b), mul_mod(a, b, n));
      EXPECT_EQ(fn_add(a, b), add_mod(a, b, n));
    }
    if (a.is_zero()) {
      EXPECT_EQ(fn_inv(a), U256{});
    } else {
      EXPECT_EQ(fn_mul(a, fn_inv(a)), U256::from_u64(1));
    }
  }
}

TEST(P256, DispatchedKernelMatchesPortable) {
  if (!detail::fp_adx_kernel())
    GTEST_SKIP() << "no bmi2/adx: fp_mul already runs the portable kernel";
  Rng rng(15);
  const U256& p = p256_p();
  int mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    const U256 a = mod(random_u256(rng), p);
    const U256 b = mod(random_u256(rng), p);
    mismatches += fp_mul(a, b) != detail::fp_mul_portable(a, b);
    mismatches += fp_sqr(a) != detail::fp_sqr_portable(a);
  }
  EXPECT_EQ(mismatches, 0);
}

/// Inverse inputs below m: 0, 1, 2, m - 1, 2^255, every one-bit value and
/// each limb all ones (reduced mod m).
std::vector<U256> inverse_edge_values(const U256& m) {
  std::vector<U256> out = {U256{}, U256::from_u64(1), U256::from_u64(2)};
  U256 v;
  sub(v, m, U256::from_u64(1));
  out.push_back(v);
  for (int bit = 0; bit < 256; ++bit) {  // includes 2^255
    U256 one_bit;
    one_bit.w[bit / 64] = std::uint64_t{1} << (bit % 64);
    out.push_back(mod(one_bit, m));
  }
  for (int limb = 0; limb < 4; ++limb) {
    U256 ones;
    ones.w[limb] = ~std::uint64_t{0};
    out.push_back(mod(ones, m));
  }
  return out;
}

TEST(P256, SafegcdInversesMatchOracles) {
  // fn_inv and fp_inv (safegcd) on edge values and 10^5 random inputs per
  // modulus. Every result is compared with the binary-Euclid oracle inv_mod
  // and checked as a * inv == 1 (mod m), which pins it: an inverse mod a
  // prime is unique. The slow Fermat oracle inv_mod_prime runs on the edge
  // values and the first 2,000 random inputs. fp_inv is checked through
  // the Montgomery domain it works in.
  Rng rng(16);
  for (const bool mod_p : {true, false}) {
    const U256& m = mod_p ? p256_p() : p256_n();
    std::vector<U256> inputs = inverse_edge_values(m);
    const std::size_t fermat_checked = inputs.size() + 2000;
    for (int i = 0; i < 100000; ++i) inputs.push_back(mod(random_u256(rng), m));
    int mismatches = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const U256& a = inputs[i];
      const U256 inv =
          mod_p ? fp_from_mont(fp_inv(fp_to_mont(a))) : fn_inv(a);
      mismatches += inv != inv_mod(a, m);
      mismatches += mul_mod(a, inv, m) !=
                    (a.is_zero() ? U256{} : U256::from_u64(1));
      if (i < fermat_checked) mismatches += inv != inv_mod_prime(a, m);
    }
    EXPECT_EQ(mismatches, 0) << (mod_p ? "mod p" : "mod n");
  }
  EXPECT_EQ(fn_inv(U256{}), U256{});
  EXPECT_EQ(fp_inv(U256{}), U256{});
}

TEST(U256, LimbDivisionMatchesBitwiseOracle) {
  // The Knuth-D remainder path against the retained bit-by-bit oracle, over
  // random dividends and moduli of every limb width.
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    U512 a;
    for (auto& w : a.w) w = rng.next_u64();
    // Vary modulus width: 1..4 significant limbs, occasionally sparse.
    U256 m;
    const int limbs = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int j = 0; j < limbs; ++j) m.w[j] = rng.next_u64();
    if (m.w[limbs - 1] == 0) m.w[limbs - 1] = 1;
    if (i % 7 == 0) m.w[0] = 0;  // force a zero low limb
    if (m.is_zero()) m.w[0] = 1;
    EXPECT_EQ(mod(a, m), mod_bitwise(a, m)) << "iteration " << i;
  }
}

TEST(U256, LimbDivisionEdgeCases) {
  U256 one = U256::from_u64(1);
  U512 zero512;
  EXPECT_EQ(mod(zero512, one), U256{});
  EXPECT_EQ(mod(zero512, p256_p()), U256{});

  U512 max512;
  for (auto& w : max512.w) w = ~std::uint64_t{0};
  U256 max256;
  for (auto& w : max256.w) w = ~std::uint64_t{0};
  // Modulus 1 -> 0; modulus 2^64-1; modulus 2^256-1; powers of two.
  EXPECT_EQ(mod(max512, one), mod_bitwise(max512, one));
  EXPECT_EQ(mod(max512, U256::from_u64(~std::uint64_t{0})),
            mod_bitwise(max512, U256::from_u64(~std::uint64_t{0})));
  EXPECT_EQ(mod(max512, max256), mod_bitwise(max512, max256));
  for (int shift : {1, 63, 64, 65, 127, 128, 192, 255}) {
    U256 pow2;
    pow2.w[shift / 64] = std::uint64_t{1} << (shift % 64);
    EXPECT_EQ(mod(max512, pow2), mod_bitwise(max512, pow2)) << shift;
  }
  // Dividend smaller than modulus passes through.
  U512 small;
  small.w[0] = 42;
  EXPECT_EQ(mod(small, p256_p()), U256::from_u64(42));
  // Dividend exactly the modulus (and modulus +- 1) reduce correctly.
  const U256& p = p256_p();
  U512 pw;
  for (int i = 0; i < 4; ++i) pw.w[i] = p.w[i];
  EXPECT_EQ(mod(pw, p), U256{});
  U256 p_plus_1;
  add(p_plus_1, p, one);
  for (int i = 0; i < 4; ++i) pw.w[i] = p_plus_1.w[i];
  EXPECT_EQ(mod(pw, p), U256::from_u64(1));
}

TEST(U256, LimbDivisionStressesQhatCorrection) {
  // Dividends shaped to trigger the qhat-too-large correction and add-back
  // branches: top limbs equal to the normalized divisor's top limb.
  Rng rng(78);
  for (int i = 0; i < 200; ++i) {
    U256 m;
    m.w[3] = rng.next_u64() | (std::uint64_t{1} << 63);  // already normalized
    m.w[0] = rng.next_u64();
    U512 a;
    a.w[7] = m.w[3];  // un[j+k] == vn[k-1] forces the qhat cap
    a.w[6] = rng.next_u64();
    a.w[5] = ~std::uint64_t{0};
    a.w[0] = rng.next_u64();
    EXPECT_EQ(mod(a, m), mod_bitwise(a, m)) << "iteration " << i;
  }
}

}  // namespace
}  // namespace bm::crypto
