#include <gtest/gtest.h>

#include <set>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"

namespace bm {
namespace {

TEST(Bytes, ToBytesRoundTrip) {
  const std::string s = "hello fabric";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, EqualComparesContent) {
  const Bytes a = to_bytes("abc");
  const Bytes b = to_bytes("abc");
  const Bytes c = to_bytes("abd");
  EXPECT_TRUE(equal(a, b));
  EXPECT_FALSE(equal(a, c));
  EXPECT_FALSE(equal(a, to_bytes("ab")));
  EXPECT_TRUE(equal(Bytes{}, Bytes{}));
}

TEST(Bytes, ConcatAndAppend) {
  Bytes out = concat({to_bytes("ab"), to_bytes(""), to_bytes("cd")});
  EXPECT_EQ(to_string(out), "abcd");
  append(out, to_bytes("ef"));
  EXPECT_EQ(to_string(out), "abcdef");
}

TEST(Bytes, Slice) {
  const Bytes b = to_bytes("0123456789");
  EXPECT_EQ(to_string(slice(b, 2, 3)), "234");
  EXPECT_EQ(slice(b, 0, 0).size(), 0u);
}

TEST(Bytes, BigEndianPacking) {
  Bytes b;
  put_u16be(b, 0x1234);
  put_u32be(b, 0xDEADBEEF);
  put_u64be(b, 0x0102030405060708ull);
  EXPECT_EQ(get_u16be(b, 0), 0x1234);
  EXPECT_EQ(get_u32be(b, 2), 0xDEADBEEFu);
  EXPECT_EQ(get_u64be(b, 6), 0x0102030405060708ull);
}

TEST(Bytes, LittleEndianPacking) {
  Bytes b;
  put_u32le(b, 0xDEADBEEF);
  put_u64le(b, 0x0102030405060708ull);
  EXPECT_EQ(b, (Bytes{0xEF, 0xBE, 0xAD, 0xDE, 8, 7, 6, 5, 4, 3, 2, 1}));
  EXPECT_EQ(get_u32le(b, 0), 0xDEADBEEFu);
  EXPECT_EQ(get_u64le(b, 4), 0x0102030405060708ull);
}

TEST(Hex, EncodeDecodeRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Bytes data = rng.bytes(rng.uniform(100));
    const auto decoded = hex_decode(hex_encode(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(equal(*decoded, data));
  }
}

TEST(Hex, KnownValues) {
  EXPECT_EQ(hex_encode(Bytes{0x00, 0xff, 0x10}), "00ff10");
  EXPECT_EQ(hex_encode(Bytes{}), "");
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
  EXPECT_FALSE(hex_decode("zz").has_value());    // bad digit
  EXPECT_TRUE(hex_decode("AbCd").has_value());   // mixed case ok
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 2000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 2000.0, 0.25, 0.05);
}

TEST(Rng, BytesLength) {
  Rng rng(3);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
  EXPECT_EQ(rng.bytes(7).size(), 7u);
  EXPECT_EQ(rng.bytes(64).size(), 64u);
}

// --- CRC-32: the carry-less-multiply kernel against the bytewise oracle ----

TEST(Crc32, KernelMatchesBytewiseAtEveryLengthAndOffset) {
  if (!detail::crc32_has_clmul())
    GTEST_SKIP() << "no pclmulqdq: crc32_update is the bytewise loop";
  Rng rng(23);
  const Bytes data = rng.bytes(64 + 4096);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    // The oracle grows one byte at a time; the kernel takes each prefix whole.
    std::uint32_t want = seed;
    for (std::size_t length = 0; length <= 4096; ++length) {
      if (length > 0)
        want = detail::crc32_bytewise(want, ByteView(data).subspan(
                                                offset + length - 1, 1));
      ASSERT_EQ(crc32_update(seed, ByteView(data).subspan(offset, length)),
                want)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, KernelMatchesBytewiseOnOneMebibyte) {
  if (!detail::crc32_has_clmul())
    GTEST_SKIP() << "no pclmulqdq: crc32_update is the bytewise loop";
  const Bytes data = Rng(29).bytes(std::size_t{1} << 20);
  EXPECT_EQ(crc32(data), detail::crc32_bytewise(0, data));
}

TEST(Crc32, UpdateChainsAtEverySplit) {
  Rng rng(31);
  const Bytes data = rng.bytes(1024);
  const auto seed = static_cast<std::uint32_t>(rng.next_u64());
  const std::uint32_t whole = detail::crc32_bytewise(seed, data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head =
        crc32_update(seed, ByteView(data).subspan(0, split));
    ASSERT_EQ(crc32_update(head, ByteView(data).subspan(split)), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace bm
