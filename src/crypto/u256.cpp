#include "crypto/u256.hpp"

#include <cassert>
#include <stdexcept>

namespace bm::crypto {

U256 U256::from_u64(std::uint64_t v) {
  U256 r;
  r.w[0] = v;
  return r;
}

U256 U256::from_bytes_be(ByteView b) {
  assert(b.size() == 32);
  U256 r;
  for (int limb = 0; limb < 4; ++limb) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | b[(3 - limb) * 8 + i];
    r.w[limb] = v;
  }
  return r;
}

U256 U256::from_hex(std::string_view hex) {
  if (hex.size() > 64) throw std::invalid_argument("hex too long for U256");
  U256 r;
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else throw std::invalid_argument("bad hex digit");
    // r = r*16 + d
    std::uint64_t carry = static_cast<std::uint64_t>(d);
    for (auto& limb : r.w) {
      const std::uint64_t hi = limb >> 60;
      limb = (limb << 4) | carry;
      carry = hi;
    }
  }
  return r;
}

Bytes U256::to_bytes_be() const {
  Bytes out(32);
  for (int limb = 0; limb < 4; ++limb)
    for (int i = 0; i < 8; ++i)
      out[(3 - limb) * 8 + i] =
          static_cast<std::uint8_t>(w[limb] >> (56 - 8 * i));
  return out;
}

bool U256::is_zero() const {
  return (w[0] | w[1] | w[2] | w[3]) == 0;
}

bool U256::bit(int i) const {
  return (w[i / 64] >> (i % 64)) & 1;
}

int U256::top_bit() const {
  for (int limb = 3; limb >= 0; --limb) {
    if (w[limb] != 0) return limb * 64 + 63 - __builtin_clzll(w[limb]);
  }
  return -1;
}

int cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] < b.w[i]) return -1;
    if (a.w[i] > b.w[i]) return 1;
  }
  return 0;
}

std::uint64_t add(U256& r, const U256& a, const U256& b) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += a.w[i];
    carry += b.w[i];
    r.w[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<std::uint64_t>(carry);
}

std::uint64_t sub(U256& r, const U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 lhs = a.w[i];
    const unsigned __int128 rhs =
        static_cast<unsigned __int128>(b.w[i]) + borrow;
    r.w[i] = static_cast<std::uint64_t>(lhs - rhs);
    borrow = lhs < rhs ? 1 : 0;
  }
  return borrow;
}

namespace {

bool u512_bit(const U512& a, int i) {
  return (a.w[i / 64] >> (i % 64)) & 1;
}

int u512_top_bit(const U512& a) {
  for (int limb = 7; limb >= 0; --limb)
    if (a.w[limb] != 0) return limb * 64 + 63 - __builtin_clzll(a.w[limb]);
  return -1;
}

}  // namespace

U256 mod_bitwise(const U512& a, const U256& m) {
  assert(!m.is_zero());
  U256 r;
  const int top = u512_top_bit(a);
  for (int i = top; i >= 0; --i) {
    // r = 2r + bit; the transient value fits in 257 bits tracked by `hi`.
    const bool hi = (r.w[3] >> 63) & 1;
    for (int limb = 3; limb > 0; --limb)
      r.w[limb] = (r.w[limb] << 1) | (r.w[limb - 1] >> 63);
    r.w[0] = (r.w[0] << 1) | (u512_bit(a, i) ? 1u : 0u);
    if (hi || cmp(r, m) >= 0) sub(r, r, m);
  }
  return r;
}

U256 mod(const U512& a, const U256& m) {
  assert(!m.is_zero());
  int k = 4;
  while (k > 1 && m.w[k - 1] == 0) --k;

  if (k == 1) {
    // Single-limb modulus: stream the eight dividend limbs through a
    // 128-by-64 remainder.
    const std::uint64_t d = m.w[0];
    std::uint64_t rem = 0;
    for (int i = 7; i >= 0; --i) {
      const unsigned __int128 cur =
          (static_cast<unsigned __int128>(rem) << 64) | a.w[i];
      rem = static_cast<std::uint64_t>(cur % d);
    }
    return U256::from_u64(rem);
  }

  // Knuth Algorithm D, remainder only. Normalize so the divisor's top limb
  // has its most significant bit set; the dividend gains one spill limb.
  const int shift = __builtin_clzll(m.w[k - 1]);
  std::uint64_t vn[4];
  for (int i = k - 1; i >= 0; --i) {
    vn[i] = m.w[i] << shift;
    if (shift != 0 && i > 0) vn[i] |= m.w[i - 1] >> (64 - shift);
  }
  std::uint64_t un[9];
  un[8] = shift == 0 ? 0 : a.w[7] >> (64 - shift);
  for (int i = 7; i >= 0; --i) {
    un[i] = a.w[i] << shift;
    if (shift != 0 && i > 0) un[i] |= a.w[i - 1] >> (64 - shift);
  }

  for (int j = 8 - k; j >= 0; --j) {
    // Estimate the quotient digit from the top two dividend limbs, then
    // correct it (at most twice) against the next limb down.
    const unsigned __int128 top =
        (static_cast<unsigned __int128>(un[j + k]) << 64) | un[j + k - 1];
    unsigned __int128 qhat = top / vn[k - 1];
    unsigned __int128 rhat = top % vn[k - 1];
    while ((qhat >> 64) != 0 ||
           static_cast<unsigned __int128>(static_cast<std::uint64_t>(qhat)) *
                   vn[k - 2] >
               ((rhat << 64) | un[j + k - 2])) {
      --qhat;
      rhat += vn[k - 1];
      if ((rhat >> 64) != 0) break;
    }
    const std::uint64_t q = static_cast<std::uint64_t>(qhat);

    // Multiply-subtract q * vn from un[j .. j+k].
    __int128 borrow = 0;
    __int128 t = 0;
    for (int i = 0; i < k; ++i) {
      const unsigned __int128 p = static_cast<unsigned __int128>(q) * vn[i];
      t = static_cast<__int128>(un[i + j]) - borrow -
          static_cast<std::uint64_t>(p);
      un[i + j] = static_cast<std::uint64_t>(t);
      borrow = static_cast<__int128>(static_cast<std::uint64_t>(p >> 64)) -
               (t >> 64);
    }
    t = static_cast<__int128>(un[j + k]) - borrow;
    un[j + k] = static_cast<std::uint64_t>(t);

    if (t < 0) {
      // Estimate was one too large: add the divisor back.
      unsigned __int128 carry = 0;
      for (int i = 0; i < k; ++i) {
        carry += static_cast<unsigned __int128>(un[i + j]) + vn[i];
        un[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      un[j + k] += static_cast<std::uint64_t>(carry);
    }
  }

  // Denormalize: the remainder sits in un[0 .. k-1].
  U256 r;
  for (int i = 0; i < k; ++i) {
    r.w[i] = un[i] >> shift;
    if (shift != 0) r.w[i] |= un[i + 1] << (64 - shift);
  }
  return r;
}

U256 mod(const U256& a, const U256& m) {
  U512 wide;
  for (int i = 0; i < 4; ++i) wide.w[i] = a.w[i];
  return mod(wide, m);
}

U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 r;
  const std::uint64_t carry = add(r, a, b);
  if (carry || cmp(r, m) >= 0) sub(r, r, m);
  return r;
}

U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 r;
  if (sub(r, a, b)) add(r, r, m);
  return r;
}

U256 mul_mod(const U256& a, const U256& b, const U256& m) {
  return mod(mul_wide(a, b), m);
}

U256 pow_mod(const U256& a, const U256& e, const U256& m) {
  U256 result = U256::from_u64(1);
  const int top = e.top_bit();
  for (int i = top; i >= 0; --i) {
    result = mul_mod(result, result, m);
    if (e.bit(i)) result = mul_mod(result, a, m);
  }
  return result;
}

U256 inv_mod_prime(const U256& a, const U256& m) {
  U256 e = m;
  const U256 two = U256::from_u64(2);
  sub(e, e, two);
  return pow_mod(a, e, m);
}

namespace {

void shr1(U256& v) {
  for (int i = 0; i < 3; ++i) v.w[i] = (v.w[i] >> 1) | (v.w[i + 1] << 63);
  v.w[3] >>= 1;
}

/// x / 2 mod m for odd m: an odd x gets m added first (the carry becomes
/// the top bit after the shift).
void halve_mod(U256& x, const U256& m) {
  const std::uint64_t carry = (x.w[0] & 1) != 0 ? add(x, x, m) : 0;
  shr1(x);
  x.w[3] |= carry << 63;
}

bool is_one(const U256& v) {
  return v.w[0] == 1 && (v.w[1] | v.w[2] | v.w[3]) == 0;
}

}  // namespace

U256 inv_mod(const U256& a, const U256& m) {
  if (a.is_zero()) return U256{};
  // Hankerson et al., Alg. 2.22. Invariants: x1 * a == u and x2 * a == v
  // (mod m); halving u or v halves its coefficient mod m.
  U256 u = a;
  U256 v = m;
  U256 x1 = U256::from_u64(1);
  U256 x2;
  while (!is_one(u) && !is_one(v)) {
    while ((u.w[0] & 1) == 0) {
      shr1(u);
      halve_mod(x1, m);
    }
    while ((v.w[0] & 1) == 0) {
      shr1(v);
      halve_mod(x2, m);
    }
    if (cmp(u, v) >= 0) {
      sub(u, u, v);
      if (u.is_zero()) return U256{};  // gcd(a, m) > 1: no inverse
      x1 = sub_mod(x1, x2, m);
    } else {
      sub(v, v, u);
      x2 = sub_mod(x2, x1, m);
    }
  }
  return is_one(u) ? x1 : x2;
}

}  // namespace bm::crypto
