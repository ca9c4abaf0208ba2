// Differential and known-answer tests for the fast scalar-multiplication
// paths (wNAF, fixed-base comb, joint wNAF) against the retained naive
// double-and-add oracle, plus an RFC-6979 determinism pin proving the fast
// paths produce byte-identical signatures to the pre-optimization code.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto_block_scalars.hpp"

namespace bm::crypto {
namespace {

AffinePoint affine(const JacobianPoint& p) { return to_affine(p); }

U256 random_scalar(Rng& rng) {
  return U256::from_bytes_be(rng.bytes(32));
}

TEST(P256Fast, WnafMatchesNaiveOnRandomScalars) {
  Rng rng(11);
  const AffinePoint q =
      key_from_seed(to_bytes("wnaf-point")).public_key().point;
  for (int i = 0; i < 30; ++i) {
    const U256 k = random_scalar(rng);
    EXPECT_EQ(affine(scalar_mult_wnaf(k, q)), affine(scalar_mult_naive(k, q)))
        << "iteration " << i;
  }
}

TEST(P256Fast, CombMatchesNaiveOnRandomScalars) {
  Rng rng(12);
  const AffinePoint& g = p256_generator();
  for (int i = 0; i < 30; ++i) {
    const U256 k = random_scalar(rng);
    EXPECT_EQ(affine(base_mult(k)), affine(scalar_mult_naive(k, g)))
        << "iteration " << i;
  }
}

TEST(P256Fast, JointWnafMatchesNaiveOnRandomScalars) {
  Rng rng(13);
  const AffinePoint q =
      key_from_seed(to_bytes("joint-point")).public_key().point;
  for (int i = 0; i < 30; ++i) {
    const U256 u1 = random_scalar(rng);
    const U256 u2 = random_scalar(rng);
    const JacobianPoint expected = point_add(
        scalar_mult_naive(u1, p256_generator()), scalar_mult_naive(u2, q));
    EXPECT_EQ(affine(double_scalar_mult(u1, u2, q)), affine(expected))
        << "iteration " << i;
  }
}

TEST(P256Fast, EdgeScalars) {
  const AffinePoint q = key_from_seed(to_bytes("edge")).public_key().point;
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, U256::from_u64(1));
  U256 n_plus_1 = p256_n();
  add(n_plus_1, n_plus_1, U256::from_u64(1));
  U256 all_ones;
  all_ones.w.fill(~std::uint64_t{0});
  const U256 edges[] = {U256{},           U256::from_u64(1),
                        U256::from_u64(2), U256::from_u64(3),
                        n_minus_1,         p256_n(),
                        n_plus_1,          all_ones};
  for (const U256& k : edges) {
    EXPECT_EQ(affine(scalar_mult_wnaf(k, q)), affine(scalar_mult_naive(k, q)));
    EXPECT_EQ(affine(base_mult(k)),
              affine(scalar_mult_naive(k, p256_generator())));
  }
  // k = 0 and k = n land on the point at infinity.
  EXPECT_TRUE(base_mult(U256{}).is_infinity());
  EXPECT_TRUE(base_mult(p256_n()).is_infinity());
  EXPECT_TRUE(scalar_mult_wnaf(p256_n(), q).is_infinity());
  // Infinity base stays at infinity.
  EXPECT_TRUE(
      scalar_mult(U256::from_u64(7), AffinePoint{{}, {}, true}).is_infinity());
}

TEST(P256Fast, CombBlockBoundaryScalars) {
  // The generator's comb alone, and joined with a key's comb, on scalars at
  // the edges of the four 64-bit blocks; u2 runs through the list backwards.
  const AffinePoint q = key_from_seed(to_bytes("block")).public_key().point;
  const PointCombTable table = PointCombTable::build(q);
  const std::vector<U256> scalars = block_boundary_scalars();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const U256& u1 = scalars[i];
    const U256& u2 = scalars[scalars.size() - 1 - i];
    const JacobianPoint u1g = scalar_mult_naive(u1, p256_generator());
    EXPECT_EQ(affine(base_mult(u1)), affine(u1g)) << "scalar " << i;
    EXPECT_EQ(affine(double_scalar_mult_comb(u1, u2, table)),
              affine(point_add(u1g, scalar_mult_naive(u2, q))))
        << "scalar " << i;
  }
}

TEST(P256Fast, JointWnafEdgeScalars) {
  const AffinePoint q = key_from_seed(to_bytes("jedge")).public_key().point;
  const U256 k = U256::from_u64(0x1234567);
  // u1 = 0: pure Q component; u2 = 0: pure G component; both 0: infinity.
  EXPECT_EQ(affine(double_scalar_mult(U256{}, k, q)),
            affine(scalar_mult_naive(k, q)));
  EXPECT_EQ(affine(double_scalar_mult(k, U256{}, q)),
            affine(scalar_mult_naive(k, p256_generator())));
  EXPECT_TRUE(double_scalar_mult(U256{}, U256{}, q).is_infinity());
  // u1*G + u2*Q with u2*Q = -u1*G cancels to infinity: pick Q = G.
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, U256::from_u64(1));
  EXPECT_TRUE(
      double_scalar_mult(U256::from_u64(1), n_minus_1, p256_generator())
          .is_infinity());
}

// Known multiples of G (SEC/NIST point-multiplication vectors).
TEST(P256Fast, KnownGeneratorMultiples) {
  struct Vector {
    std::uint64_t k;
    const char* x;
    const char* y;
  };
  const Vector vectors[] = {
      {1, "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
       "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"},
      {2, "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
       "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"},
      {3, "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c",
       "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032"},
      {4, "e2534a3532d08fbba02dde659ee62bd0031fe2db785596ef509302446b030852",
       "e0f1575a4c633cc719dfee5fda862d764efc96c3f30ee0055c42c23f184ed8c6"},
  };
  for (const Vector& v : vectors) {
    const U256 k = U256::from_u64(v.k);
    const AffinePoint expected{U256::from_hex(v.x), U256::from_hex(v.y),
                               false};
    EXPECT_EQ(affine(base_mult(k)), expected) << "k = " << v.k;
    EXPECT_EQ(affine(scalar_mult_wnaf(k, p256_generator())), expected)
        << "k = " << v.k;
    EXPECT_EQ(affine(scalar_mult_naive(k, p256_generator())), expected)
        << "k = " << v.k;
  }
}

TEST(P256Fast, BatchToAffineMatchesSingle) {
  Rng rng(14);
  std::vector<JacobianPoint> pts;
  const AffinePoint q = key_from_seed(to_bytes("batch")).public_key().point;
  for (int i = 0; i < 9; ++i)
    pts.push_back(scalar_mult_naive(random_scalar(rng), q));
  pts.push_back(JacobianPoint{});  // infinity passes through
  pts.insert(pts.begin(), JacobianPoint{});
  const std::vector<AffinePoint> batch = batch_to_affine(pts);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(batch[i], to_affine(pts[i])) << "index " << i;
}

TEST(P256Fast, MixedAdditionMatchesGeneral) {
  Rng rng(15);
  const AffinePoint base = key_from_seed(to_bytes("mixed")).public_key().point;
  for (int i = 0; i < 10; ++i) {
    const JacobianPoint p = scalar_mult_naive(random_scalar(rng), base);
    const AffinePoint q =
        to_affine(scalar_mult_naive(random_scalar(rng), base));
    EXPECT_EQ(affine(point_add_affine(p, q)),
              affine(point_add(p, to_jacobian(q))));
  }
  // Edge cases: infinity operands, doubling, cancellation.
  const JacobianPoint p = scalar_mult_naive(U256::from_u64(5), base);
  const AffinePoint pa = to_affine(p);
  EXPECT_EQ(affine(point_add_affine(JacobianPoint{}, pa)), pa);
  EXPECT_EQ(affine(point_add_affine(p, AffinePoint{{}, {}, true})), pa);
  EXPECT_EQ(affine(point_add_affine(p, pa)), affine(point_double(p)));
  AffinePoint neg = pa;
  neg.y = sub_mod(U256{}, neg.y, p256_p());
  EXPECT_TRUE(point_add_affine(p, neg).is_infinity());
}

TEST(P256Fast, EightLaneFieldOpsMatchScalar) {
  if (!detail::comb_ifma_kernel())
    GTEST_SKIP() << "no avx512ifma: the lockstep walk runs the portable kernel";
  // Edge values crossed with each other, then 10^5 seeded random pairs, in
  // batches of eight lanes: each lane must hold exactly what fp_mul,
  // fp_sqr, fp_add and fp_sub return.
  const U256& p = p256_p();
  std::vector<U256> edges = {U256{}, U256::from_u64(1)};
  U256 v;
  sub(v, p, U256::from_u64(1));
  edges.push_back(v);  // p - 1
  sub(v, p, U256::from_u64(2));
  edges.push_back(v);  // p - 2
  for (int j = 0; j < 5; ++j) {  // one 52-bit limb all ones
    U256 limb;
    for (int bit = 52 * j; bit < 52 * j + 52 && bit < 256; ++bit)
      limb.w[bit / 64] |= std::uint64_t{1} << (bit % 64);
    edges.push_back(mod(limb, p));
  }
  const std::uint64_t ones = ~std::uint64_t{0};
  edges.push_back(U256{{ones, ones, ones, 0xffff}});  // limbs 0..3 all ones
  edges.push_back(mod(U256{{ones, ones, ones, ones}}, p));
  std::vector<std::pair<U256, U256>> pairs;
  for (const U256& a : edges)
    for (const U256& b : edges) pairs.push_back({a, b});
  Rng rng(16);
  for (int i = 0; i < 100000; ++i)
    pairs.push_back({mod(random_scalar(rng), p), mod(random_scalar(rng), p)});
  while (pairs.size() % 8 != 0) pairs.push_back({U256{}, U256{}});
  int mismatches = 0;
  for (std::size_t first = 0; first < pairs.size(); first += 8) {
    detail::Fp8 a{}, b{};
    for (int k = 0; k < 8; ++k) {
      detail::fp8_set(a, k, pairs[first + k].first);
      detail::fp8_set(b, k, pairs[first + k].second);
    }
    const detail::Fp8 mul = detail::fp8_apply(detail::Fp8Op::kMul, a, b);
    const detail::Fp8 sqr = detail::fp8_apply(detail::Fp8Op::kSqr, a, b);
    const detail::Fp8 sum = detail::fp8_apply(detail::Fp8Op::kAdd, a, b);
    const detail::Fp8 diff = detail::fp8_apply(detail::Fp8Op::kSub, a, b);
    for (int k = 0; k < 8; ++k) {
      const auto& [x, y] = pairs[first + k];
      mismatches += detail::fp8_get(mul, k) != fp_mul(x, y);
      mismatches += detail::fp8_get(sqr, k) != fp_sqr(x);
      mismatches += detail::fp8_get(sum, k) != fp_add(x, y);
      mismatches += detail::fp8_get(diff, k) != fp_sub(x, y);
      if (first < edges.size() * edges.size()) {
        EXPECT_EQ(detail::fp8_get(mul, k), fp_mul(x, y))
            << hex_encode(x.to_bytes_be()) << " * "
            << hex_encode(y.to_bytes_be());
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Signatures produced by the pre-optimization (naive double-and-add)
// implementation. The fast comb/wNAF paths must reproduce them bit for bit:
// RFC 6979 nonces plus identical group arithmetic leave no room for drift.
TEST(P256Fast, SignaturesByteIdenticalToNaiveImplementation) {
  const char* expected[][2] = {
      {"1df50670acf60a1fc9db52dc94c278cc4f8964e755825bd0782a494f1ad2c639",
       "b0f1bf92d04317ba071382c652f92082a8f96702ec738e924e3777901ef395c3"},
      {"a50e27c4053f062bed49613b27a5b5e55e5ee8cb9e754697a4e565ef2b69c3ba",
       "fcec8652ac3279795dca69fdaec905d699b1e696acfa5360bb80d83ecb743851"},
      {"144dafcab41f9e14a155fc717a546b9a61571aa9acb81e60a8ca559569379db8",
       "9bc7a4c691544b1d0de9ba0cc1bf7ba3925f7eb342ad70ce7dba059b79e49504"},
      {"1e58febe9eebab3a8c767b418f634b1a1294165f09141e3151f25f3f03f72c1a",
       "dce16d5c8b4fcc900089595e22d19e9e281ab6b8103d4f1225393f606fcb7ffc"},
  };
  for (int i = 0; i < 4; ++i) {
    const PrivateKey key = key_from_seed(to_bytes("detvec-" + std::to_string(i)));
    const Digest d = sha256(to_bytes("determinism-msg-" + std::to_string(i)));
    const Signature sig = sign(key, d);
    EXPECT_EQ(hex_encode(sig.r.to_bytes_be()), expected[i][0]) << "msg " << i;
    EXPECT_EQ(hex_encode(sig.s.to_bytes_be()), expected[i][1]) << "msg " << i;
    EXPECT_TRUE(verify(key.public_key(), d, sig));
  }
}

}  // namespace
}  // namespace bm::crypto
