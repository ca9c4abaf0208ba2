// Scalars on the block boundaries of the comb: each 64-bit limb of a scalar
// is its own comb block, so a digit bug can hide inside one limb. Shared by
// the comb tests of crypto_p256_fast_test and crypto_comb_cache_test.
#pragma once

#include <vector>

#include "crypto/p256.hpp"

namespace bm::crypto {

inline std::vector<U256> block_boundary_scalars() {
  std::vector<U256> out;
  const std::uint64_t ones = ~std::uint64_t{0};
  for (int limb = 0; limb < 4; ++limb) {
    U256 all_ones;  // this limb all ones, the others zero (limb 0: 2^64 - 1)
    all_ones.w[limb] = ones;
    out.push_back(all_ones);
    U256 top_bit;  // bit 63 of this limb
    top_bit.w[limb] = std::uint64_t{1} << 63;
    out.push_back(top_bit);
  }
  out.push_back(U256{{0, 1, 0, 0}});  // 2^64
  out.push_back(U256{{1, 0, 1, 0}});  // 2^128 + 1
  out.push_back(U256{{0, 0, 0, 1}});  // 2^192
  const U256 one = U256::from_u64(1);
  U256 v;
  sub(v, p256_n(), one);
  out.push_back(v);  // n - 1
  out.push_back(p256_n());
  add(v, p256_n(), one);
  out.push_back(v);  // n + 1
  out.push_back(U256{{ones, ones, ones, ones}});  // 2^256 - 1
  return out;
}

}  // namespace bm::crypto
