// Fixed-width 256-bit unsigned arithmetic for the P-256 implementation.
//
// Little-endian 64-bit limbs (w[0] is least significant). Wide products use
// a 512-bit struct. The inline carry helpers and 4x64-limb product below are
// what p256.cpp builds its Montgomery-domain field on; mont_reduce serves the
// group order n. The division-based helpers (mod, mul_mod, pow_mod, ...) are
// the slow reference arithmetic the tests check those paths against.
#pragma once

#include <array>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/bytes.hpp"

namespace bm::crypto {

struct U256 {
  std::array<std::uint64_t, 4> w{};

  static U256 from_u64(std::uint64_t v);
  /// Parse exactly 32 big-endian bytes.
  static U256 from_bytes_be(ByteView b);
  /// Parse a hex string of up to 64 digits (no 0x prefix).
  static U256 from_hex(std::string_view hex);

  Bytes to_bytes_be() const;  ///< Always 32 bytes.
  bool is_zero() const;
  bool bit(int i) const;  ///< i in [0, 255].
  /// Index of the highest set bit, or -1 if zero.
  int top_bit() const;

  friend bool operator==(const U256&, const U256&) = default;
};

struct U512 {
  std::array<std::uint64_t, 8> w{};
};

/// a < b, a == b, a > b  =>  -1, 0, 1.
int cmp(const U256& a, const U256& b);

/// r = a + b; returns the carry out (0 or 1).
std::uint64_t add(U256& r, const U256& a, const U256& b);

/// r = a - b; returns the borrow out (0 or 1).
std::uint64_t sub(U256& r, const U256& a, const U256& b);

/// r = a + b + carry for a carry of 0 or 1; returns the carry out. One adc
/// on x86-64, where the compiler would otherwise spill 128-bit temporaries.
inline std::uint8_t add_carry(std::uint8_t carry, std::uint64_t a,
                              std::uint64_t b, std::uint64_t& r) {
#if defined(__x86_64__)
  unsigned long long out = 0;
  carry = _addcarry_u64(carry, a, b, &out);
  r = out;
  return carry;
#else
  const unsigned __int128 t = static_cast<unsigned __int128>(a) + b + carry;
  r = static_cast<std::uint64_t>(t);
  return static_cast<std::uint8_t>(t >> 64);
#endif
}

/// r = a - b - borrow for a borrow of 0 or 1; returns the borrow out.
inline std::uint8_t sub_borrow(std::uint8_t borrow, std::uint64_t a,
                               std::uint64_t b, std::uint64_t& r) {
#if defined(__x86_64__)
  unsigned long long out = 0;
  borrow = _subborrow_u64(borrow, a, b, &out);
  r = out;
  return borrow;
#else
  const unsigned __int128 t =
      static_cast<unsigned __int128>(a) - b - borrow;
  r = static_cast<std::uint64_t>(t);
  return static_cast<std::uint8_t>((t >> 64) & 1);
#endif
}

/// Low word of a * b; the high word goes to `hi`.
inline std::uint64_t mul_hilo(std::uint64_t a, std::uint64_t b,
                              std::uint64_t& hi) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  hi = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
}

/// (carry, acc) = acc + a * b + carry; cannot overflow.
inline void mul_add(std::uint64_t a, std::uint64_t b, std::uint64_t& acc,
                    std::uint64_t& carry) {
  std::uint64_t hi = 0;
  const std::uint64_t lo = mul_hilo(a, b, hi);
  std::uint8_t c = add_carry(0, acc, lo, acc);
  add_carry(c, hi, 0, hi);
  c = add_carry(0, acc, carry, acc);
  add_carry(c, hi, 0, carry);
}

/// Full 512-bit product (16 limb products). Written out limb by limb, with
/// no loops or arrays of temporaries: the field multiply inlines it, and
/// loops here compiled to spills and vector moves through the stack that
/// made it several times slower.
[[gnu::always_inline]] inline U512 mul_wide(const U256& a, const U256& b) {
  const std::uint64_t a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  std::uint64_t x0 = 0, x1 = 0, x2 = 0, x3 = 0, x4 = 0, x5 = 0, x6 = 0;
  std::uint64_t c = 0;
  mul_add(a0, b.w[0], x0, c); mul_add(a1, b.w[0], x1, c);
  mul_add(a2, b.w[0], x2, c); mul_add(a3, b.w[0], x3, c);
  x4 = c;
  c = 0;
  mul_add(a0, b.w[1], x1, c); mul_add(a1, b.w[1], x2, c);
  mul_add(a2, b.w[1], x3, c); mul_add(a3, b.w[1], x4, c);
  x5 = c;
  c = 0;
  mul_add(a0, b.w[2], x2, c); mul_add(a1, b.w[2], x3, c);
  mul_add(a2, b.w[2], x4, c); mul_add(a3, b.w[2], x5, c);
  x6 = c;
  c = 0;
  mul_add(a0, b.w[3], x3, c); mul_add(a1, b.w[3], x4, c);
  mul_add(a2, b.w[3], x5, c); mul_add(a3, b.w[3], x6, c);
  return U512{{x0, x1, x2, x3, x4, x5, x6, c}};
}

/// (top * 2^256 + x) - m if that is >= 0, else x; without a branch. For
/// values below 2m (top is 0 or 1) this is the final step of a reduction.
inline U256 subtract_once(const U256& x, std::uint64_t top, const U256& m) {
  U256 r;
  std::uint8_t b = sub_borrow(0, x.w[0], m.w[0], r.w[0]);
  b = sub_borrow(b, x.w[1], m.w[1], r.w[1]);
  b = sub_borrow(b, x.w[2], m.w[2], r.w[2]);
  b = sub_borrow(b, x.w[3], m.w[3], r.w[3]);
  std::uint64_t keep_x = 0;  // all ones when the difference went negative
  sub_borrow(b, top, 0, keep_x);
  r.w[0] = (r.w[0] & ~keep_x) | (x.w[0] & keep_x);
  r.w[1] = (r.w[1] & ~keep_x) | (x.w[1] & keep_x);
  r.w[2] = (r.w[2] & ~keep_x) | (x.w[2] & keep_x);
  r.w[3] = (r.w[3] & ~keep_x) | (x.w[3] & keep_x);
  return r;
}

/// Montgomery reduction: t * 2^-256 mod m, for odd m, t < m * 2^256 (any
/// product of two values < m) and m0inv = -m^-1 mod 2^64. Four rounds each
/// add the multiple of m that clears the lowest limb; no division.
inline U256 mont_reduce(const U512& t, const U256& m, std::uint64_t m0inv) {
  U512 x = t;
  std::uint64_t top = 0;  // carry out of x[i + 4], owed to x[i + 5]
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t q = x.w[i] * m0inv;
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) mul_add(m.w[j], q, x.w[i + j], carry);
    const std::uint8_t c1 = add_carry(0, x.w[i + 4], carry, x.w[i + 4]);
    const std::uint8_t c2 = add_carry(0, x.w[i + 4], top, x.w[i + 4]);
    top = static_cast<std::uint64_t>(c1) + c2;
  }
  return subtract_once(U256{{x.w[4], x.w[5], x.w[6], x.w[7]}}, top, m);
}

/// Generic a mod m via limb-wise long division (Knuth TAOCP 4.3.1 Alg. D
/// with 64-bit digits); m must be non-zero.
U256 mod(const U512& a, const U256& m);

/// Reference bit-by-bit long division. ~60x slower than mod(); retained as
/// the differential-testing oracle for the limb-wise path.
U256 mod_bitwise(const U512& a, const U256& m);

/// Reduce a 256-bit value mod m (single conditional subtract path).
U256 mod(const U256& a, const U256& m);

/// (a + b) mod m; inputs must already be < m.
U256 add_mod(const U256& a, const U256& b, const U256& m);

/// (a - b) mod m; inputs must already be < m.
U256 sub_mod(const U256& a, const U256& b, const U256& m);

/// (a * b) mod m via wide product + generic division.
U256 mul_mod(const U256& a, const U256& b, const U256& m);

/// a^e mod m by square-and-multiply.
U256 pow_mod(const U256& a, const U256& e, const U256& m);

/// a^(m-2) mod m over generic division: the reference inverse mod a prime
/// that inv_mod and the safegcd inverses (fp_inv, fn_inv) are tested
/// against.
U256 inv_mod_prime(const U256& a, const U256& m);

/// a^-1 mod m by the binary extended Euclidean algorithm (variable time),
/// for odd m and a in [1, m) coprime to m; 0 maps to 0. The second oracle
/// for the safegcd inverses.
U256 inv_mod(const U256& a, const U256& m);

}  // namespace bm::crypto
