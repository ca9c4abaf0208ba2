// Differential tests for the per-point Lim-Lee comb tables, and the
// first-sight / build / hit / eviction accounting of the CombCache that
// crypto::verify consults. Verification verdicts across those states are
// checked against the reference verify in crypto_ecdsa_test.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "crypto/comb_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto_block_scalars.hpp"

namespace bm::crypto {
namespace {

AffinePoint random_point(Rng& rng) {
  const U256 k = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  return to_affine(scalar_mult(k, p256_generator()));
}

std::vector<U256> edge_scalars() {
  const U256 one = U256::from_u64(1);
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, one);
  U256 n_plus_1;
  add(n_plus_1, p256_n(), one);
  U256 all_ones;
  all_ones.w.fill(~std::uint64_t{0});
  return {U256{}, one, n_minus_1, p256_n(), n_plus_1, all_ones};
}

TEST(PointCombTable, MatchesGenericScalarMult) {
  Rng rng(11);
  for (int pt = 0; pt < 3; ++pt) {
    const AffinePoint p = random_point(rng);
    const PointCombTable table = PointCombTable::build(p);
    EXPECT_EQ(table.point(), p);
    for (int i = 0; i < 8; ++i) {
      const U256 k = U256::from_bytes_be(rng.bytes(32));
      EXPECT_EQ(to_affine(table.mult(k)), to_affine(scalar_mult_wnaf(k, p)));
      EXPECT_EQ(to_affine(table.mult(k)), to_affine(scalar_mult_naive(k, p)));
    }
  }
}

TEST(PointCombTable, EdgeScalars) {
  Rng rng(12);
  const AffinePoint p = random_point(rng);
  const PointCombTable table = PointCombTable::build(p);
  for (const U256& k : edge_scalars())
    EXPECT_EQ(to_affine(table.mult(k)), to_affine(scalar_mult_naive(k, p)));
}

TEST(PointCombTable, BlockBoundaryScalars) {
  // Every pair of block-boundary scalars through a key's comb and the joint
  // comb with the generator's.
  Rng rng(14);
  const AffinePoint q = random_point(rng);
  const PointCombTable table = PointCombTable::build(q);
  const std::vector<U256> scalars = block_boundary_scalars();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const JacobianPoint u2q = scalar_mult_naive(scalars[i], q);
    EXPECT_EQ(to_affine(table.mult(scalars[i])), to_affine(u2q))
        << "scalar " << i;
    for (std::size_t j = 0; j < scalars.size(); ++j) {
      const JacobianPoint expected =
          point_add(scalar_mult_naive(scalars[j], p256_generator()), u2q);
      EXPECT_EQ(to_affine(double_scalar_mult_comb(scalars[j], scalars[i],
                                                  table)),
                to_affine(expected))
          << "u1 " << j << ", u2 " << i;
    }
  }
}

TEST(PointCombTable, InfinityPoint) {
  const PointCombTable table = PointCombTable::build(AffinePoint{{}, {}, true});
  EXPECT_TRUE(table.mult(U256::from_u64(7)).is_infinity());
  EXPECT_TRUE(table.mult(U256{}).is_infinity());
}

TEST(PointCombTable, DoubleScalarMatchesGeneric) {
  Rng rng(13);
  const AffinePoint q = random_point(rng);
  const PointCombTable table = PointCombTable::build(q);
  for (int i = 0; i < 8; ++i) {
    const U256 u1 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
    const U256 u2 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
    EXPECT_EQ(to_affine(double_scalar_mult_comb(u1, u2, table)),
              to_affine(double_scalar_mult(u1, u2, q)));
  }
  // Degenerate operands: one or both scalars zero.
  const U256 u = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  EXPECT_EQ(to_affine(double_scalar_mult_comb(U256{}, u, table)),
            to_affine(double_scalar_mult(U256{}, u, q)));
  EXPECT_EQ(to_affine(double_scalar_mult_comb(u, U256{}, table)),
            to_affine(double_scalar_mult(u, U256{}, q)));
  EXPECT_TRUE(double_scalar_mult_comb(U256{}, U256{}, table).is_infinity());
}

PublicKey key_named(const std::string& name) {
  return key_from_seed(to_bytes(name)).public_key();
}

TEST(CombCache, FirstSightThenBuildThenHit) {
  CombCache cache(4);
  const PublicKey k1 = key_named("cc1");

  EXPECT_EQ(cache.table_for(k1), nullptr);  // first sight: generic path
  EXPECT_EQ(cache.counters().first_sights, 1u);
  EXPECT_EQ(cache.size(), 0u);

  const auto built = cache.table_for(k1);  // second sight: built
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->point(), k1.point);
  EXPECT_EQ(cache.counters().builds, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Later sights share the same table object.
  EXPECT_EQ(cache.table_for(k1).get(), built.get());
  EXPECT_EQ(cache.table_for(k1).get(), built.get());
  const CombCache::Counters c = cache.counters();
  EXPECT_EQ(c.first_sights, 1u);
  EXPECT_EQ(c.builds, 1u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST(CombCache, EvictedKeyStartsOverAsFirstSight) {
  // Capacity 2: the third table evicts the least recently used one, whose
  // key then needs two sights again to earn a table back.
  CombCache cache(2);
  const PublicKey a = key_named("churn-a");
  const PublicKey b = key_named("churn-b");
  const PublicKey c = key_named("churn-c");
  for (const PublicKey* key : {&a, &a, &b, &b}) cache.table_for(*key);
  EXPECT_EQ(cache.size(), 2u);
  cache.table_for(b);  // b becomes the most recently used
  cache.table_for(c);
  ASSERT_NE(cache.table_for(c), nullptr);  // evicts a
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.table_for(b), nullptr);
  EXPECT_EQ(cache.table_for(a), nullptr);
  EXPECT_NE(cache.table_for(a), nullptr);  // rebuilt, evicting c
  EXPECT_EQ(cache.counters().builds, 4u);
  EXPECT_EQ(cache.counters().evictions, 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.table_for(a), nullptr);
}

TEST(CombCache, FreshKeysNeverBuildOrEvict) {
  // More distinct keys than the capacity, each seen once: the seen-once
  // set absorbs them and the held tables are untouched.
  CombCache cache(4);
  const PublicKey hot = key_named("hot");
  cache.table_for(hot);
  const auto table = cache.table_for(hot);
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(cache.table_for(key_named("fresh" + std::to_string(i))),
              nullptr);
  const CombCache::Counters c = cache.counters();
  EXPECT_EQ(c.builds, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.first_sights, 13u);
  EXPECT_EQ(cache.table_for(hot).get(), table.get());
}

}  // namespace
}  // namespace bm::crypto
