#include <gtest/gtest.h>

#include <algorithm>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace bm::crypto {
namespace {

std::string digest_hex(const Digest& d) { return hex_encode(digest_view(d)); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, FipsVectors) {
  EXPECT_EQ(digest_hex(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_hex(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShotAtEverySplit) {
  const Bytes msg = Rng(5).bytes(300);
  const Digest expected = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 13) {
    Sha256 h;
    h.update(ByteView(msg).subspan(0, split));
    h.update(ByteView(msg).subspan(split));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

TEST(Sha256, ManySmallUpdates) {
  const Bytes msg = Rng(6).bytes(257);
  Sha256 h;
  for (std::uint8_t byte : msg) h.update(ByteView(&byte, 1));
  EXPECT_EQ(h.finish(), sha256(msg));
}

TEST(Sha256, EmptyUpdateIsANoOp) {
  // A default-constructed view has a null data pointer; feeding it while
  // the block buffer is partly full must neither copy from it nor change
  // the digest.
  Sha256 h;
  h.update(to_bytes("ab"));
  h.update(ByteView{});
  h.update(to_bytes("c"));
  h.update(ByteView{});
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, BoundaryLengths) {
  // Messages near the 64-byte block and 56-byte padding boundaries.
  Rng rng(7);
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg = rng.bytes(len);
    Sha256 a;
    a.update(ByteView(msg).subspan(0, len / 2));
    a.update(ByteView(msg).subspan(len / 2));
    EXPECT_EQ(a.finish(), sha256(msg)) << "len=" << len;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  Rng rng(8);
  const Bytes a = rng.bytes(40);
  Bytes b = a;
  b[20] ^= 1;
  EXPECT_NE(sha256(a), sha256(b));
}

TEST(Sha256, ShaNiBlocksMatchScalarBlocks) {
  // The block function Sha256 runs on SHA-NI hosts against the portable
  // one, from random states over runs of 1..9 random blocks.
  const Sha256BlockFn shani = sha256_blocks_shani();
  if (shani == nullptr) GTEST_SKIP() << "CPU without the SHA extensions";
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t count = 1 + rng.next_u64() % 9;
    const Bytes data = rng.bytes(64 * count);
    std::uint32_t expected[8];
    for (std::uint32_t& word : expected)
      word = static_cast<std::uint32_t>(rng.next_u64());
    std::uint32_t actual[8];
    std::copy(expected, expected + 8, actual);
    sha256_blocks_scalar(expected, data.data(), count);
    shani(actual, data.data(), count);
    EXPECT_TRUE(std::equal(expected, expected + 8, actual)) << "case " << i;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest d = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(digest_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Digest d = hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  const Digest d = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(digest_hex(d),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, PartsMatchesConcatenation) {
  Rng rng(9);
  const Bytes key = rng.bytes(32);
  const Bytes a = rng.bytes(10), b = rng.bytes(20), c = rng.bytes(5);
  const HmacSha256 keyed(key);
  EXPECT_EQ(keyed.mac({a, b, c}), hmac_sha256(key, concat({a, b, c})));
  // The midstates are forked, not consumed: a second MAC is the same.
  EXPECT_EQ(keyed.mac({a, b, c}), keyed.mac({concat({a, b}), c}));
}

}  // namespace
}  // namespace bm::crypto
