#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/comb_cache.hpp"
#include "crypto/der.hpp"
#include "crypto/ecdsa.hpp"

namespace bm::crypto {
namespace {

// RFC 6979 A.2.5 key for NIST P-256.
const char* kRfcPrivate =
    "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721";

TEST(P256Curve, GeneratorOnCurve) {
  EXPECT_TRUE(on_curve(p256_generator()));
}

TEST(P256Curve, GeneratorOrder) {
  // n * G == infinity, (n-1) * G == -G.
  const JacobianPoint nG = scalar_mult(p256_n(), p256_generator());
  EXPECT_TRUE(nG.is_infinity());

  U256 n_minus_1 = p256_n();
  U256 one = U256::from_u64(1);
  sub(n_minus_1, n_minus_1, one);
  const AffinePoint neg_g = to_affine(scalar_mult(n_minus_1, p256_generator()));
  EXPECT_EQ(neg_g.x, p256_generator().x);
  EXPECT_EQ(fp_add(neg_g.y, p256_generator().y), U256{});  // y + (-y) = 0
}

TEST(P256Curve, AdditionLaws) {
  Rng rng(1);
  const PrivateKey k1 = key_from_seed(to_bytes("k1"));
  const PrivateKey k2 = key_from_seed(to_bytes("k2"));
  const JacobianPoint p = scalar_mult(k1.d, p256_generator());
  const JacobianPoint q = scalar_mult(k2.d, p256_generator());

  // Commutativity.
  EXPECT_EQ(to_affine(point_add(p, q)), to_affine(point_add(q, p)));
  // P + infinity = P.
  EXPECT_EQ(to_affine(point_add(p, JacobianPoint{})), to_affine(p));
  // P + P = double(P).
  EXPECT_EQ(to_affine(point_add(p, p)), to_affine(point_double(p)));
  // (k1 + k2) * G == k1*G + k2*G.
  const U256 sum = add_mod(k1.d, k2.d, p256_n());
  EXPECT_EQ(to_affine(scalar_mult(sum, p256_generator())),
            to_affine(point_add(p, q)));
}

TEST(P256Curve, DoubleScalarMatchesSeparate) {
  const PrivateKey key = key_from_seed(to_bytes("dsm"));
  const AffinePoint q = key.public_key().point;
  Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    const U256 u1 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
    const U256 u2 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
    const JacobianPoint combined = double_scalar_mult(u1, u2, q);
    const JacobianPoint separate = point_add(
        scalar_mult(u1, p256_generator()), scalar_mult(u2, q));
    EXPECT_EQ(to_affine(combined), to_affine(separate));
  }
}

TEST(Ecdsa, Rfc6979PublicKey) {
  const PrivateKey key{U256::from_hex(kRfcPrivate)};
  const PublicKey pub = key.public_key();
  EXPECT_EQ(hex_encode(pub.point.x.to_bytes_be()),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  EXPECT_EQ(hex_encode(pub.point.y.to_bytes_be()),
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299");
}

TEST(Ecdsa, Rfc6979SampleVector) {
  const PrivateKey key{U256::from_hex(kRfcPrivate)};
  const Signature sig = sign(key, sha256(to_bytes("sample")));
  EXPECT_EQ(hex_encode(sig.r.to_bytes_be()),
            "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(hex_encode(sig.s.to_bytes_be()),
            "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
}

TEST(Ecdsa, Rfc6979TestVector) {
  const PrivateKey key{U256::from_hex(kRfcPrivate)};
  const Signature sig = sign(key, sha256(to_bytes("test")));
  EXPECT_EQ(hex_encode(sig.r.to_bytes_be()),
            "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  EXPECT_EQ(hex_encode(sig.s.to_bytes_be()),
            "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
}

class EcdsaRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EcdsaRoundTrip, SignVerify) {
  const int i = GetParam();
  const PrivateKey key =
      key_from_seed(to_bytes("roundtrip-" + std::to_string(i)));
  const PublicKey pub = key.public_key();
  EXPECT_TRUE(on_curve(pub.point));

  const Digest digest = sha256(to_bytes("message-" + std::to_string(i)));
  const Signature sig = sign(key, digest);
  EXPECT_TRUE(verify(pub, digest, sig));

  // Tampered message fails.
  EXPECT_FALSE(verify(pub, sha256(to_bytes("other")), sig));
  // Tampered signature fails.
  Signature bad = sig;
  bad.r = add_mod(bad.r, U256::from_u64(1), p256_n());
  EXPECT_FALSE(verify(pub, digest, bad));
  // Wrong key fails.
  const PublicKey other = key_from_seed(to_bytes("other-key")).public_key();
  EXPECT_FALSE(verify(other, digest, sig));
}

INSTANTIATE_TEST_SUITE_P(Keys, EcdsaRoundTrip, ::testing::Range(0, 10));

TEST(Ecdsa, RejectsDegenerateSignatures) {
  const PrivateKey key = key_from_seed(to_bytes("degenerate"));
  const Digest d = sha256(to_bytes("m"));
  EXPECT_FALSE(verify(key.public_key(), d, Signature{U256{}, U256::from_u64(1)}));
  EXPECT_FALSE(verify(key.public_key(), d, Signature{U256::from_u64(1), U256{}}));
  // r >= n rejected.
  EXPECT_FALSE(verify(key.public_key(), d, Signature{p256_n(), U256::from_u64(1)}));
}

TEST(Ecdsa, DeterministicSigning) {
  const PrivateKey key = key_from_seed(to_bytes("det"));
  const Digest d = sha256(to_bytes("same message"));
  EXPECT_EQ(sign(key, d), sign(key, d));
}

TEST(Ecdsa, KeyFromSeedInRange) {
  for (int i = 0; i < 20; ++i) {
    const PrivateKey key = key_from_seed(to_bytes("seed" + std::to_string(i)));
    EXPECT_FALSE(key.d.is_zero());
    EXPECT_LT(cmp(key.d, p256_n()), 0);
  }
}

TEST(PublicKey, EncodeDecodeRoundTrip) {
  const PublicKey pub = key_from_seed(to_bytes("enc")).public_key();
  const Bytes encoded = pub.encode();
  EXPECT_EQ(encoded.size(), 65u);
  EXPECT_EQ(encoded[0], 0x04);
  const auto decoded = PublicKey::decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, pub);
}

TEST(PublicKey, DecodeRejectsOffCurveAndMalformed) {
  const PublicKey pub = key_from_seed(to_bytes("bad")).public_key();
  Bytes encoded = pub.encode();
  encoded[40] ^= 0xFF;  // corrupt Y
  EXPECT_FALSE(PublicKey::decode(encoded).has_value());
  EXPECT_FALSE(PublicKey::decode(Bytes(64, 0)).has_value());
  Bytes wrong_prefix = pub.encode();
  wrong_prefix[0] = 0x02;
  EXPECT_FALSE(PublicKey::decode(wrong_prefix).has_value());
}

// --- DER --------------------------------------------------------------------

TEST(Der, RoundTripRandomSignatures) {
  for (int i = 0; i < 20; ++i) {
    const PrivateKey key = key_from_seed(to_bytes("der" + std::to_string(i)));
    const Signature sig = sign(key, sha256(to_bytes(std::to_string(i))));
    const auto decoded = der_decode_signature(der_encode_signature(sig));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, sig);
  }
}

TEST(Der, MinimalIntegerEncoding) {
  // Small r/s values encode minimally (no leading zeros).
  const Signature sig{U256::from_u64(1), U256::from_u64(0x80)};
  const Bytes der = der_encode_signature(sig);
  // SEQUENCE(0x30) len, INTEGER(02) 01 01, INTEGER(02) 02 00 80
  const Bytes expected = {0x30, 0x07, 0x02, 0x01, 0x01, 0x02, 0x02, 0x00, 0x80};
  EXPECT_TRUE(equal(der, expected));
}

TEST(Der, RejectsMalformedInputs) {
  const Signature sig{U256::from_u64(1234567), U256::from_u64(7654321)};
  const Bytes good = der_encode_signature(sig);

  EXPECT_FALSE(der_decode_signature(Bytes{}).has_value());
  Bytes wrong_tag = good;
  wrong_tag[0] = 0x31;
  EXPECT_FALSE(der_decode_signature(wrong_tag).has_value());
  Bytes truncated(good.begin(), good.end() - 1);
  EXPECT_FALSE(der_decode_signature(truncated).has_value());
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(der_decode_signature(trailing).has_value());
  // Non-minimal integer: 0x00 prefix on a small positive value.
  const Bytes non_minimal = {0x30, 0x08, 0x02, 0x02, 0x00, 0x01,
                             0x02, 0x02, 0x00, 0x80};
  EXPECT_FALSE(der_decode_signature(non_minimal).has_value());
  // Negative integer.
  const Bytes negative = {0x30, 0x06, 0x02, 0x01, 0x81, 0x02, 0x01, 0x01};
  EXPECT_FALSE(der_decode_signature(negative).has_value());
}

// --- Edge-case sweep ---------------------------------------------------------
// Audit battery over PublicKey::decode, der_decode_signature, and verify:
// truncated/oversized lengths, non-minimal forms, trailing bytes, degenerate
// r/s, and off-curve / infinity / out-of-field keys must all be rejected.

TEST(PublicKey, DecodeRejectsOutOfFieldCoordinates) {
  const PublicKey pub = key_from_seed(to_bytes("oof")).public_key();
  // X >= p.
  Bytes bad_x = pub.encode();
  const Bytes p_be = p256_p().to_bytes_be();
  std::copy(p_be.begin(), p_be.end(), bad_x.begin() + 1);
  EXPECT_FALSE(PublicKey::decode(bad_x).has_value());
  // Y >= p (use p itself, which would alias y = 0).
  Bytes bad_y = pub.encode();
  std::copy(p_be.begin(), p_be.end(), bad_y.begin() + 33);
  EXPECT_FALSE(PublicKey::decode(bad_y).has_value());
  // All-ones coordinates.
  EXPECT_FALSE(PublicKey::decode([] {
                 Bytes b(65, 0xFF);
                 b[0] = 0x04;
                 return b;
               }()).has_value());
}

TEST(PublicKey, DecodeRejectsWrongSizesAndZeroPoint) {
  const PublicKey pub = key_from_seed(to_bytes("sz")).public_key();
  const Bytes good = pub.encode();
  EXPECT_FALSE(PublicKey::decode(Bytes{}).has_value());
  EXPECT_FALSE(PublicKey::decode(Bytes(1, 0x04)).has_value());
  Bytes truncated(good.begin(), good.end() - 1);
  EXPECT_FALSE(PublicKey::decode(truncated).has_value());
  Bytes oversized = good;
  oversized.push_back(0x00);  // trailing byte
  EXPECT_FALSE(PublicKey::decode(oversized).has_value());
  // (0, 0) is not on the curve (b != 0).
  Bytes zero(65, 0x00);
  zero[0] = 0x04;
  EXPECT_FALSE(PublicKey::decode(zero).has_value());
  // Compressed and hybrid prefixes are not accepted by the uncompressed
  // parser.
  for (std::uint8_t prefix : {0x00, 0x02, 0x03, 0x05, 0x06, 0x07, 0xFF}) {
    Bytes b = good;
    b[0] = prefix;
    EXPECT_FALSE(PublicKey::decode(b).has_value()) << int(prefix);
  }
}

TEST(Der, RejectsTruncatedAndOversizedLengths) {
  const Signature sig{U256::from_u64(0x123456), U256::from_u64(0x654321)};
  const Bytes good = der_encode_signature(sig);

  // Truncate at every byte boundary: no prefix may decode.
  for (std::size_t len = 0; len < good.size(); ++len) {
    Bytes prefix(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(der_decode_signature(prefix).has_value()) << "len " << len;
  }
  // Trailing bytes after a valid signature.
  for (std::uint8_t extra : {0x00, 0x30, 0xFF}) {
    Bytes trailing = good;
    trailing.push_back(extra);
    EXPECT_FALSE(der_decode_signature(trailing).has_value()) << int(extra);
  }
  // Sequence length larger than the payload.
  Bytes overlong = good;
  overlong[1] = static_cast<std::uint8_t>(good.size());  // > actual content
  EXPECT_FALSE(der_decode_signature(overlong).has_value());
  // Sequence length smaller than the payload (inner trailing bytes).
  Bytes underlong = good;
  underlong[1] -= 1;
  EXPECT_FALSE(der_decode_signature(underlong).has_value());
}

TEST(Der, RejectsNonMinimalLengthForms) {
  // Long-form length 0x81 encoding a value < 0x80 is non-minimal DER.
  // 0x30 0x81 0x06 | 02 01 01 | 02 01 01
  const Bytes non_minimal_seq = {0x30, 0x81, 0x06, 0x02, 0x01, 0x01,
                                 0x02, 0x01, 0x01};
  EXPECT_FALSE(der_decode_signature(non_minimal_seq).has_value());
  // Indefinite length (0x80) is BER, not DER.
  const Bytes indefinite = {0x30, 0x80, 0x02, 0x01, 0x01, 0x02,
                            0x01, 0x01, 0x00, 0x00};
  EXPECT_FALSE(der_decode_signature(indefinite).has_value());
  // Multi-byte long form (0x82) can never be needed for a 72-byte signature.
  const Bytes two_byte_len = {0x30, 0x82, 0x00, 0x06, 0x02, 0x01,
                              0x01, 0x02, 0x01, 0x01};
  EXPECT_FALSE(der_decode_signature(two_byte_len).has_value());
}

TEST(Der, RejectsMalformedIntegers) {
  // Zero-length integer.
  const Bytes empty_int = {0x30, 0x05, 0x02, 0x00, 0x02, 0x01, 0x01};
  EXPECT_FALSE(der_decode_signature(empty_int).has_value());
  // Wrong inner tag (0x03 BIT STRING instead of 0x02 INTEGER).
  const Bytes wrong_tag = {0x30, 0x06, 0x03, 0x01, 0x01, 0x02, 0x01, 0x01};
  EXPECT_FALSE(der_decode_signature(wrong_tag).has_value());
  // 34-byte integer body (0x00 + 33 bytes) exceeds the 32-byte field even
  // after stripping the sign byte.
  Bytes too_wide = {0x30, 0x28, 0x02, 0x23, 0x00, 0xFF};
  too_wide.insert(too_wide.end(), 33, 0xAA);
  too_wide.insert(too_wide.end(), {0x02, 0x01, 0x01});
  too_wide[5] = 0x80;  // keep the 0x00 prefix minimal (next byte high)
  EXPECT_FALSE(der_decode_signature(too_wide).has_value());
  // A 33-byte body with 0x00 prefix and high second byte IS valid DER for a
  // 256-bit integer: round-trip a max-range r to prove the path stays open.
  U256 big;
  big.w.fill(~std::uint64_t{0});
  const Signature wide_sig{big, U256::from_u64(1)};
  const auto wide_decoded = der_decode_signature(der_encode_signature(wide_sig));
  ASSERT_TRUE(wide_decoded.has_value());
  EXPECT_EQ(*wide_decoded, wide_sig);
}

TEST(Ecdsa, VerifyRejectsDegenerateAndBoundaryScalars) {
  const PrivateKey key = key_from_seed(to_bytes("bound"));
  const PublicKey pub = key.public_key();
  const Digest d = sha256(to_bytes("m"));
  const Signature good = sign(key, d);
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, U256::from_u64(1));
  U256 n_plus_1 = p256_n();
  add(n_plus_1, n_plus_1, U256::from_u64(1));
  U256 all_ones;
  all_ones.w.fill(~std::uint64_t{0});

  EXPECT_FALSE(verify(pub, d, Signature{U256{}, U256{}}));
  EXPECT_FALSE(verify(pub, d, Signature{good.r, U256{}}));
  EXPECT_FALSE(verify(pub, d, Signature{U256{}, good.s}));
  EXPECT_FALSE(verify(pub, d, Signature{p256_n(), good.s}));
  EXPECT_FALSE(verify(pub, d, Signature{good.r, p256_n()}));
  EXPECT_FALSE(verify(pub, d, Signature{n_plus_1, good.s}));
  EXPECT_FALSE(verify(pub, d, Signature{good.r, all_ones}));
  // In-range but wrong values still fail (n-1 is a legal scalar).
  EXPECT_FALSE(verify(pub, d, Signature{n_minus_1, good.s}));
  EXPECT_FALSE(verify(pub, d, Signature{good.r, n_minus_1}));
  // The honest signature still passes after all the rejects.
  EXPECT_TRUE(verify(pub, d, good));
}

TEST(Ecdsa, VerifyRejectsBadKeys) {
  const PrivateKey key = key_from_seed(to_bytes("badkey"));
  const Digest d = sha256(to_bytes("m"));
  const Signature sig = sign(key, d);

  // Point at infinity.
  PublicKey infinity_key;
  infinity_key.point = AffinePoint{{}, {}, true};
  EXPECT_FALSE(verify(infinity_key, d, sig));
  // Off-curve point.
  PublicKey off_curve = key.public_key();
  off_curve.point.x = add_mod(off_curve.point.x, U256::from_u64(1), p256_p());
  EXPECT_FALSE(verify(off_curve, d, sig));
  // Coordinates outside the field.
  PublicKey out_of_field = key.public_key();
  out_of_field.point.y = p256_p();
  EXPECT_FALSE(verify(out_of_field, d, sig));
  // (0, 0) "zero key".
  PublicKey zero_key;
  zero_key.point = AffinePoint{{}, {}, false};
  EXPECT_FALSE(verify(zero_key, d, sig));
}

TEST(Ecdsa, SignatureMalleabilityCounterpartIsDistinct) {
  // (r, n - s) is the other valid ECDSA signature for the same digest; the
  // verifier accepts both (Fabric does not enforce low-s), but they must
  // decode/encode as distinct DER.
  const PrivateKey key = key_from_seed(to_bytes("malle"));
  const Digest d = sha256(to_bytes("m"));
  const Signature sig = sign(key, d);
  Signature flipped = sig;
  flipped.s = sub_mod(U256{}, sig.s, p256_n());
  EXPECT_TRUE(verify(key.public_key(), d, flipped));
  EXPECT_NE(der_encode_signature(sig), der_encode_signature(flipped));
}

/// ECDSA verification the way the library computed it before the
/// Montgomery rewrite: Fermat inverse and scalar products over generic
/// division, two separate scalar multiplications, and the affine x through
/// a field inversion. Oracle for the inversion-free verify().
bool reference_verify(const PublicKey& key, const Digest& digest,
                      const Signature& sig) {
  const U256& n = p256_n();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;
  if (key.point.infinity || !on_curve(key.point)) return false;
  const U256 e = mod(U256::from_bytes_be(digest_view(digest)), n);
  const U256 w = inv_mod_prime(sig.s, n);
  const JacobianPoint p =
      point_add(scalar_mult_wnaf(mul_mod(e, w, n), p256_generator()),
                scalar_mult_wnaf(mul_mod(sig.r, w, n), key.point));
  if (p.is_infinity()) return false;
  return mod(to_affine(p).x, n) == sig.r;
}

/// The signature over `d` and its tampered and edge-value variants. Every
/// r and s lies in [1, n-1], so each case passes the range checks and
/// reaches the multiply.
std::vector<std::pair<Digest, Signature>> signature_cases(const PrivateKey& key,
                                                          const Digest& d,
                                                          Rng& rng) {
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, U256::from_u64(1));
  const U256 one = U256::from_u64(1);
  const Signature sig = sign(key, d);
  Digest flipped = d;
  flipped[rng.next_u64() % 32] ^=
      static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
  return {
      {d, sig},
      {d, Signature{sig.r, sub_mod(U256{}, sig.s, p256_n())}},  // n - s
      {flipped, sig},
      {d, Signature{add_mod(sig.r, one, p256_n()), sig.s}},
      {d, Signature{sig.r, add_mod(sig.s, one, p256_n())}},
      {d, Signature{one, sig.s}},
      {d, Signature{n_minus_1, n_minus_1}},
      {d, Signature{sig.r, one}},
  };
}

TEST(Ecdsa, VerifyMatchesReferenceOnRandomTamperedAndEdgeInputs) {
  std::vector<PrivateKey> keys;
  for (int i = 0; i < 8; ++i)
    keys.push_back(key_from_seed(to_bytes("diff-" + std::to_string(i))));
  Rng rng(21);
  int accepted = 0;
  int checked = 0;
  for (int i = 0; i < 300; ++i) {
    const PrivateKey& key = keys[i % keys.size()];
    const PublicKey pub = key.public_key();
    Digest d;
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), d.begin());
    if (i % 50 == 1) d.fill(0);     // e = 0: u1 = 0
    if (i % 50 == 2) d.fill(0xff);  // e >= n: reduced before use
    for (const auto& [digest, candidate] : signature_cases(key, d, rng)) {
      const bool expected = reference_verify(pub, digest, candidate);
      EXPECT_EQ(verify(pub, digest, candidate), expected) << "case " << i;
      // A key other than the signer's.
      const PublicKey other = keys[(i + 1) % keys.size()].public_key();
      EXPECT_EQ(verify(other, digest, candidate),
                reference_verify(other, digest, candidate))
          << "case " << i;
      accepted += expected ? 1 : 0;
      checked += 2;
    }
  }
  EXPECT_EQ(accepted, 600);  // the signature and its (r, n - s) twin
  EXPECT_EQ(checked, 4800);
}

// --- verify() across the states of its per-key comb table --------------------

struct SignedMessage {
  PublicKey key;
  Digest digest;
  Signature sig;
};

SignedMessage signed_message(const std::string& seed) {
  const PrivateKey key = key_from_seed(to_bytes(seed));
  const Digest digest = sha256(to_bytes("message of " + seed));
  return {key.public_key(), digest, sign(key, digest)};
}

TEST(Ecdsa, VerifyMatchesReferenceInEveryTableState) {
  // Each case runs under its key at the first sight (generic multiply), the
  // second (table build), while cached, and after the key's table was
  // evicted by capacity newer tables (first sight again, then a rebuild).
  CombCache& cache = CombCache::shared();
  std::vector<SignedMessage> fillers;
  for (std::size_t i = 0; i < cache.capacity(); ++i)
    fillers.push_back(signed_message("filler-" + std::to_string(i)));
  // Two sights of every filler: capacity tables newer than any other key's,
  // so every other key's table is evicted.
  const auto flush = [&] {
    for (int sight = 0; sight < 2; ++sight)
      for (const SignedMessage& f : fillers)
        EXPECT_TRUE(verify(f.key, f.digest, f.sig));
  };
  Rng rng(22);
  int accepted = 0;
  for (int k = 0; k < 3; ++k) {
    const PrivateKey key =
        key_from_seed(to_bytes("sight-" + std::to_string(k)));
    const PublicKey pub = key.public_key();
    Digest d;
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), d.begin());
    for (const auto& [digest, candidate] : signature_cases(key, d, rng)) {
      const bool expected = reference_verify(pub, digest, candidate);
      accepted += expected ? 1 : 0;
      const auto expect_sight = [&](const char* state,
                                    std::uint64_t CombCache::Counters::*path) {
        const CombCache::Counters before = cache.counters();
        EXPECT_EQ(verify(pub, digest, candidate), expected)
            << state << ", key " << k;
        EXPECT_EQ(cache.counters().*path, before.*path + 1)
            << state << ", key " << k;
      };
      flush();
      expect_sight("first sight", &CombCache::Counters::first_sights);
      expect_sight("table build", &CombCache::Counters::builds);
      expect_sight("cached", &CombCache::Counters::hits);
      flush();
      expect_sight("after eviction", &CombCache::Counters::first_sights);
      expect_sight("rebuild", &CombCache::Counters::builds);
    }
  }
  EXPECT_EQ(accepted, 6);  // each key's signature and its (r, n - s) twin
}

TEST(Ecdsa, InvalidKeysNeverReachTheCombCache) {
  CombCache& cache = CombCache::shared();
  const PrivateKey key = key_from_seed(to_bytes("badkey-tables"));
  const Digest d = sha256(to_bytes("m"));
  const Signature sig = sign(key, d);
  PublicKey infinity_key;
  infinity_key.point = AffinePoint{{}, {}, true};
  PublicKey off_curve = key.public_key();
  off_curve.point.x = add_mod(off_curve.point.x, U256::from_u64(1), p256_p());
  PublicKey out_of_field = key.public_key();
  out_of_field.point.y = p256_p();
  PublicKey zero_key;
  zero_key.point = AffinePoint{{}, {}, false};

  const CombCache::Counters before = cache.counters();
  const std::size_t tables = cache.size();
  for (int sight = 0; sight < 3; ++sight)
    for (const PublicKey& bad :
         {infinity_key, off_curve, out_of_field, zero_key}) {
      EXPECT_FALSE(verify(bad, d, sig));
      EXPECT_FALSE(reference_verify(bad, d, sig));
    }
  const CombCache::Counters after = cache.counters();
  EXPECT_EQ(after.first_sights, before.first_sights);
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(cache.size(), tables);
}

TEST(Ecdsa, FreshKeyStreamBuildsNoTables) {
  // More distinct valid keys than the capacity, each verified once: none
  // earns a table, and a hot key's table survives the stream.
  CombCache& cache = CombCache::shared();
  const SignedMessage hot = signed_message("stream-hot");
  for (int sight = 0; sight < 2; ++sight)
    ASSERT_TRUE(verify(hot.key, hot.digest, hot.sig));
  const CombCache::Counters before = cache.counters();
  const std::size_t keys = 2 * cache.capacity() + 1;
  for (std::size_t i = 0; i < keys; ++i) {
    const SignedMessage fresh = signed_message("stream-" + std::to_string(i));
    EXPECT_TRUE(verify(fresh.key, fresh.digest, fresh.sig));
  }
  CombCache::Counters after = cache.counters();
  EXPECT_EQ(after.first_sights - before.first_sights, keys);
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_TRUE(verify(hot.key, hot.digest, hot.sig));
  after = cache.counters();
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(Ecdsa, ConcurrentVerifiesMatchReference) {
  // Workers race through the first sights, builds and hits of the same
  // keys; every verdict must still match the reference.
  CombCache& cache = CombCache::shared();
  cache.clear();
  struct Case {
    PublicKey key;
    Digest digest;
    Signature sig;
    bool expected;
  };
  std::vector<Case> cases;
  Rng rng(23);
  constexpr int kKeys = 4;
  for (int k = 0; k < kKeys; ++k) {
    const PrivateKey key = key_from_seed(to_bytes("race-" + std::to_string(k)));
    Digest d;
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), d.begin());
    for (const auto& [digest, candidate] : signature_cases(key, d, rng))
      cases.push_back({key.public_key(), digest, candidate,
                       reference_verify(key.public_key(), digest, candidate)});
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round)
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const Case& c = cases[(i + 7 * static_cast<std::size_t>(t)) %
                                cases.size()];
          if (verify(c.key, c.digest, c.sig) != c.expected) ++mismatches[t];
        }
    });
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
}

// --- batches: one verify or sign call over many items -------------------------

/// The verdicts of verifying `items` one at a time: the single path.
std::vector<bool> verify_each(const std::vector<VerifyItem>& items) {
  std::vector<bool> ok;
  for (const VerifyItem& item : items)
    ok.push_back(verify(item.key, item.digest, item.sig));
  return ok;
}

TEST(EcdsaBatch, VerifyMatchesSinglePathInShuffledBatches) {
  // Signatures by hot keys and by keys seen in only one group of cases,
  // with signature_cases' tampered and edge variants, checked under the
  // signer's key and under another key; every 25th digest is 0 (e = 0,
  // u1 = 0) and every 25th all ones (e >= n). The cases are shuffled and
  // cut into batches of 1 to 150, and some batches run right after the
  // comb cache was cleared, so their keys are first sights (generic
  // multiply) and second sights (table builds) inside the batch.
  std::vector<PrivateKey> hot;
  for (int i = 0; i < 24; ++i)
    hot.push_back(key_from_seed(to_bytes("batch-hot-" + std::to_string(i))));
  Rng rng(31);
  std::vector<VerifyItem> cases;
  for (int g = 0; g < 1300; ++g) {
    const PrivateKey key =
        g % 2 == 0 ? hot[static_cast<std::size_t>(g / 2) % hot.size()]
                   : key_from_seed(to_bytes("batch-once-" + std::to_string(g)));
    const PublicKey other = hot[static_cast<std::size_t>(g) % hot.size()]
                                .public_key();
    Digest d;
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), d.begin());
    if (g % 25 == 3) d.fill(0);
    if (g % 25 == 4) d.fill(0xff);
    for (const auto& [digest, sig] : signature_cases(key, d, rng)) {
      cases.push_back({key.public_key(), digest, sig});
      cases.push_back({other, digest, sig});
    }
  }
  ASSERT_GE(cases.size(), 20000u);
  for (std::size_t i = cases.size(); i > 1; --i)
    std::swap(cases[i - 1], cases[rng.uniform(i)]);

  const std::vector<bool> expected = verify_each(cases);
  int accepted = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    accepted += expected[i] ? 1 : 0;
    if (i % 101 == 0)
      EXPECT_EQ(expected[i],
                reference_verify(cases[i].key, cases[i].digest, cases[i].sig))
          << "case " << i;
  }
  // Each group's signature and its (r, n - s) twin, under the signer's key
  // (and under the other key, when it is the signer).
  EXPECT_GE(accepted, 2600);

  int batches = 0;
  for (std::size_t first = 0; first < cases.size(); ++batches) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.uniform(150), cases.size() - first);
    if (batches % 7 == 0) CombCache::shared().clear();
    const std::vector<bool> ok = verify(std::span(cases).subspan(first, len));
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_EQ(ok[i], expected[first + i]) << "case " << first + i;
    first += len;
  }
}

/// A hot key with a comb table: verified twice (first sight, then build).
void warm(const PrivateKey& key) {
  const Digest d = sha256(to_bytes("warm"));
  const Signature sig = sign(key, d);
  for (int sight = 0; sight < 2; ++sight)
    ASSERT_TRUE(verify(key.public_key(), d, sig));
}

/// The batch sizes the lockstep walks are checked at: every size up to two
/// groups of eight and one more, and around 64.
std::vector<std::size_t> lockstep_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t len = 1; len <= 17; ++len) sizes.push_back(len);
  for (const std::size_t len : {63, 64, 65, 100}) sizes.push_back(len);
  return sizes;
}

TEST(EcdsaBatch, LockstepLanesMeetingPlusAndMinusTheirEntry) {
  // With e = r and s = r / 2^k, u1 = u2 = 2^k, so G's comb and Q's pick
  // the same entry position in the same column. For Q = G the accumulator,
  // which holds G's entry, then adds that same entry (a doubling inside an
  // addition step); for Q = -G it adds its negation and goes to infinity.
  // Q = G's r is x(2^(k+1) G) mod n, so those signatures verify.
  const U256& n = p256_n();
  U256 n_minus_1 = n;
  sub(n_minus_1, n_minus_1, U256::from_u64(1));
  const PrivateKey plus_g{U256::from_u64(1)};
  const PrivateKey minus_g{n_minus_1};
  warm(plus_g);
  warm(minus_g);
  std::vector<VerifyItem> items;
  U256 pow2 = U256::from_u64(1);  // 2^k mod n
  for (int k = 0; k < 256; ++k, pow2 = fn_add(pow2, pow2)) {
    const U256 r = mod(to_affine(base_mult(fn_add(pow2, pow2))).x, n);
    const U256 s = fn_mul(r, fn_inv(pow2));
    Digest d;
    const Bytes r_bytes = r.to_bytes_be();
    std::copy(r_bytes.begin(), r_bytes.end(), d.begin());
    items.push_back({plus_g.public_key(), d, Signature{r, s}});
    items.push_back({minus_g.public_key(), d, Signature{r, s}});
  }
  const std::vector<bool> ok = verify(items);
  const std::vector<bool> expected = verify_each(items);
  EXPECT_EQ(ok, expected);
  // Consecutive batches of every lockstep_sizes() length, then the rest.
  std::size_t first = 0;
  const auto check_batch = [&](std::size_t len) {
    const std::vector<bool> part = verify(std::span(items).subspan(first, len));
    for (std::size_t i = 0; i < len; ++i)
      EXPECT_EQ(part[i], expected[first + i]) << "item " << first + i;
    first += len;
  };
  for (const std::size_t len : lockstep_sizes()) check_batch(len);
  ASSERT_GE(items.size(), first + verify_batch_min());
  check_batch(items.size() - first);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(ok[i], i % 2 == 0) << "item " << i;
    if (i % 16 < 2)
      EXPECT_EQ(ok[i], reference_verify(items[i].key, items[i].digest,
                                        items[i].sig))
          << "item " << i;
  }
}

TEST(EcdsaBatch, CombCacheCountersMatchVerifyingOneByOne) {
  // More keys than the cache holds tables for, each seen one to four
  // times: the batch asks the cache once per item in item order, so first
  // sights, builds, hits and evictions all match the single path's.
  CombCache& cache = CombCache::shared();
  Rng rng(32);
  std::vector<VerifyItem> items;
  for (int k = 0; k < 90; ++k) {
    const SignedMessage m = signed_message("counters-" + std::to_string(k));
    for (std::uint64_t sight = 0; sight <= rng.uniform(4); ++sight)
      items.push_back({m.key, m.digest, m.sig});
  }
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.uniform(i)]);
  const auto run = [&](auto&& verify_all) {
    cache.clear();
    const CombCache::Counters before = cache.counters();
    const std::vector<bool> ok = verify_all(items);
    const CombCache::Counters after = cache.counters();
    EXPECT_EQ(ok, std::vector<bool>(items.size(), true));
    return std::array<std::uint64_t, 4>{
        after.first_sights - before.first_sights, after.builds - before.builds,
        after.hits - before.hits, after.evictions - before.evictions};
  };
  const auto batched = run([](const std::vector<VerifyItem>& all) {
    return verify(all);
  });
  const auto single = run(verify_each);
  EXPECT_EQ(batched, single);
  EXPECT_GT(single[1], 0u);  // builds
  EXPECT_GT(single[2], 0u);  // hits
  EXPECT_GT(single[3], 0u);  // evictions
}

TEST(EcdsaBatch, SignIsByteIdenticalToSingleSign) {
  // Mixed keys, the RFC 6979 key among them, in batches on both sides of
  // kSignBatchMin.
  std::vector<SignItem> items;
  Rng rng(33);
  for (int i = 0; i < 160; ++i) {
    const PrivateKey key =
        i % 5 == 0 ? PrivateKey{U256::from_hex(kRfcPrivate)}
                   : key_from_seed(to_bytes("sign-" + std::to_string(i % 37)));
    Digest d;
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), d.begin());
    if (i % 40 == 7) d.fill(0xff);
    items.push_back({key, d});
  }
  std::vector<Signature> expected;
  for (const SignItem& item : items)
    expected.push_back(sign(item.key, item.digest));
  std::size_t first = 0;
  for (const std::size_t len :
       {std::size_t{1}, kSignBatchMin - 1, kSignBatchMin, kSignBatchMin + 1,
        std::size_t{50}, std::size_t{73}}) {
    const std::vector<Signature> sigs =
        sign(std::span(items).subspan(first, len));
    for (std::size_t i = 0; i < len; ++i)
      EXPECT_EQ(sigs[i], expected[first + i]) << "item " << first + i;
    first += len;
  }
  EXPECT_EQ(first, items.size());
  EXPECT_EQ(sign(items), expected);
}

TEST(EcdsaBatch, ConcurrentBatchesMatchSinglePath) {
  // Workers verify and sign overlapping batches at once, racing through
  // the same keys' first sights, table builds and hits.
  CombCache::shared().clear();
  std::vector<VerifyItem> verifies;
  std::vector<SignItem> signs;
  Rng rng(34);
  for (int i = 0; i < 96; ++i) {
    const PrivateKey key =
        key_from_seed(to_bytes("concurrent-" + std::to_string(i % 6)));
    Digest d;
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), d.begin());
    Signature sig = sign(key, d);
    if (i % 3 == 0) sig.s = add_mod(sig.s, U256::from_u64(1), p256_n());
    verifies.push_back({key.public_key(), d, sig});
    signs.push_back({key, d});
  }
  std::vector<bool> expected_ok;
  for (const VerifyItem& item : verifies)
    expected_ok.push_back(
        reference_verify(item.key, item.digest, item.sig));
  std::vector<Signature> expected_sigs;
  for (const SignItem& item : signs)
    expected_sigs.push_back(sign(item.key, item.digest));

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const std::size_t first = static_cast<std::size_t>(8 * t + round);
        const std::size_t len = 40 + 8 * static_cast<std::size_t>(t);
        const std::vector<bool> ok =
            verify(std::span(verifies).subspan(first, len));
        const std::vector<Signature> sigs =
            sign(std::span(signs).subspan(first, len));
        for (std::size_t i = 0; i < len; ++i) {
          if (ok[i] != expected_ok[first + i]) ++mismatches[t];
          if (sigs[i] != expected_sigs[first + i]) ++mismatches[t];
        }
      }
    });
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

TEST(P256Curve, LockstepCombWalkMatchesJacobianWalk) {
  // Random scalars on hot-key tables and on G alone, zero scalars, a table
  // for the point at infinity, and lanes on the tables of G and -G with
  // u1 = u2 = 2^k, whose accumulator meets plus or minus the entry it adds
  // (see LockstepLanesMeetingPlusAndMinusTheirEntry). Batches of every
  // lockstep_sizes() length, and the whole pool, run through the dispatched
  // walk (the IFMA one where cpuid offers it) and the portable one.
  std::vector<PointCombTable> tables;
  for (int i = 0; i < 3; ++i)
    tables.push_back(PointCombTable::build(
        key_from_seed(to_bytes("walk-" + std::to_string(i))).public_key().point));
  tables.push_back(PointCombTable::build(AffinePoint{{}, {}, true}));
  U256 n_minus_1 = p256_n();
  sub(n_minus_1, n_minus_1, U256::from_u64(1));
  tables.push_back(PointCombTable::build(p256_generator()));
  tables.push_back(PointCombTable::build(
      PrivateKey{n_minus_1}.public_key().point));  // -G
  Rng rng(35);
  std::vector<CombLane> lanes;
  for (int i = 0; i < 120; ++i) {
    CombLane lane{mod(U256::from_bytes_be(rng.bytes(32)), p256_n()),
                  U256::from_bytes_be(rng.bytes(32)),
                  i % 5 == 4 ? nullptr : &tables[static_cast<std::size_t>(i % 4)]};
    if (i % 11 == 0) lane.u1 = U256{};
    if (i % 13 == 0) lane.u2 = U256{};
    if (i % 7 == 3) {
      const int k = static_cast<int>(rng.uniform(256));
      U256 pow2;
      pow2.w[static_cast<std::size_t>(k / 64)] = std::uint64_t{1} << (k % 64);
      lane = CombLane{pow2, pow2, &tables[4 + static_cast<std::size_t>(i % 2)]};
    }
    lanes.push_back(lane);
  }
  std::vector<AffinePoint> expected;
  for (const CombLane& lane : lanes)
    expected.push_back(to_affine(
        lane.q != nullptr ? double_scalar_mult_comb(lane.u1, lane.u2, *lane.q)
                          : base_mult(lane.u1)));
  std::vector<std::size_t> sizes = lockstep_sizes();
  sizes.push_back(lanes.size());  // and the whole pool in one batch
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::size_t first = 13 * s % (lanes.size() - sizes[s] + 1);
    const auto batch = std::span(lanes).subspan(first, sizes[s]);
    const std::vector<AffinePoint> walked =
        double_scalar_mult_comb_batch(batch);
    const std::vector<AffinePoint> portable =
        detail::double_scalar_mult_comb_batch_portable(batch);
    ASSERT_EQ(walked.size(), batch.size());
    ASSERT_EQ(portable.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(walked[i], expected[first + i])
          << "size " << sizes[s] << ", lane " << first + i;
      EXPECT_EQ(portable[i], expected[first + i])
          << "size " << sizes[s] << ", lane " << first + i;
    }
  }
}

TEST(P256Curve, ProjectiveXComparisonCoversBothCandidates) {
  // Jacobian points built directly, not on the curve: x_equals_mod_n reads
  // only X and Z. An affine x in [n, p) must match r = x - n, the case a
  // real verification meets with probability about 2^-128.
  const U256& n = p256_n();
  const U256 z = fp_to_mont(U256::from_u64(0x1234567));
  const auto with_affine_x = [&](const U256& x) {
    return JacobianPoint{fp_mul(fp_to_mont(x), fp_sqr(z)), z, z};
  };
  const U256 r = U256::from_u64(5);
  U256 r_plus_n;
  add(r_plus_n, r, n);
  EXPECT_TRUE(x_equals_mod_n(with_affine_x(r), r));
  EXPECT_TRUE(x_equals_mod_n(with_affine_x(r_plus_n), r));
  EXPECT_FALSE(x_equals_mod_n(with_affine_x(r_plus_n), U256::from_u64(6)));
  EXPECT_FALSE(x_equals_mod_n(with_affine_x(U256::from_u64(6)), r));
  // r + n past p has no second candidate.
  U256 big_r;
  sub(big_r, p256_p(), n);  // p - n: r + n == p, not a field element
  EXPECT_FALSE(x_equals_mod_n(with_affine_x(U256{}), big_r));
  EXPECT_TRUE(x_equals_mod_n(with_affine_x(big_r), big_r));
  EXPECT_FALSE(x_equals_mod_n(JacobianPoint{}, r));
}

TEST(Der, Rfc6979SampleSignatureEncoding) {
  // The DataProcessor post-processor path: DER -> (r, s) -> 256-bit values.
  const PrivateKey key{U256::from_hex(kRfcPrivate)};
  const Signature sig = sign(key, sha256(to_bytes("sample")));
  const Bytes der = der_encode_signature(sig);
  EXPECT_EQ(der[0], 0x30);
  const auto back = der_decode_signature(der);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(verify(key.public_key(), sha256(to_bytes("sample")), *back));
}

}  // namespace
}  // namespace bm::crypto
