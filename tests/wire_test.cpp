#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/proto.hpp"
#include "wire/varint.hpp"

namespace bm::wire {
namespace {

TEST(Varint, KnownEncodings) {
  Bytes b;
  put_varint(b, 0);
  put_varint(b, 1);
  put_varint(b, 127);
  put_varint(b, 128);
  put_varint(b, 300);
  const Bytes expected = {0x00, 0x01, 0x7f, 0x80, 0x01, 0xac, 0x02};
  EXPECT_TRUE(equal(b, expected));
}

TEST(Varint, RoundTripProperty) {
  Rng rng(1);
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       ~0ull, ~0ull - 1};
  for (int i = 0; i < 200; ++i)
    values.push_back(rng.next_u64() >> rng.uniform(64));
  for (const std::uint64_t v : values) {
    Bytes b;
    put_varint(b, v);
    EXPECT_EQ(b.size(), varint_size(v));
    std::size_t pos = 0;
    const auto decoded = get_varint(b, pos);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, b.size());
  }
}

TEST(Varint, RejectsTruncatedAndOverlong) {
  const Bytes truncated = {0x80, 0x80};
  std::size_t pos = 0;
  EXPECT_FALSE(get_varint(truncated, pos).has_value());

  // 10 bytes with bits beyond 64 set.
  const Bytes overlong = {0xff, 0xff, 0xff, 0xff, 0xff,
                          0xff, 0xff, 0xff, 0xff, 0x7f};
  pos = 0;
  EXPECT_FALSE(get_varint(overlong, pos).has_value());
}

TEST(Proto, FieldRoundTrip) {
  ProtoWriter w;
  w.varint_field(1, 42);
  w.string_field(2, "hello");
  w.bool_field(3, true);
  // Fabric writes no fixed-width field; the reader still decodes them.
  Bytes bytes = w.take();
  const Bytes fixed = {0x25, 0xEF, 0xBE, 0xAD, 0xDE,  // field 4, fixed32
                       0x29, 0x08, 0x07, 0x06, 0x05,  // field 5, fixed64
                       0x04, 0x03, 0x02, 0x01};
  bytes.insert(bytes.end(), fixed.begin(), fixed.end());

  ProtoReader reader(bytes);
  auto f = reader.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->number, 1u);
  EXPECT_EQ(f->varint, 42u);
  f = reader.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(to_string(f->bytes), "hello");
  f = reader.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->varint, 1u);
  f = reader.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, WireType::kFixed32);
  EXPECT_EQ(f->varint, 0xDEADBEEFu);
  f = reader.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, WireType::kFixed64);
  EXPECT_EQ(f->varint, 0x0102030405060708ull);
  EXPECT_FALSE(reader.next());
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.at_end());
}

TEST(Proto, NestedMessages) {
  ProtoWriter inner;
  inner.string_field(1, "deep");
  ProtoWriter mid;
  mid.message_field(7, inner);
  ProtoWriter outer;
  outer.message_field(3, mid);

  const auto mid_bytes = find_bytes_field(outer.bytes(), 3);
  ASSERT_TRUE(mid_bytes);
  const auto inner_bytes = find_bytes_field(*mid_bytes, 7);
  ASSERT_TRUE(inner_bytes);
  EXPECT_EQ(to_string(*find_bytes_field(*inner_bytes, 1)), "deep");
}

TEST(Proto, DeepNestingLikeFabricBlocks) {
  // §3.2: a marshaled Fabric block nests up to 23 protobuf layers. Verify
  // the writer/reader handle arbitrary depth.
  ProtoWriter current;
  current.string_field(1, "payload");
  for (int depth = 0; depth < 23; ++depth) {
    ProtoWriter next;
    next.message_field(2, current);
    current = std::move(next);
  }
  ByteView view = current.bytes();
  Bytes owned(view.begin(), view.end());
  for (int depth = 0; depth < 23; ++depth) {
    const auto inner = find_bytes_field(owned, 2);
    ASSERT_TRUE(inner) << "depth " << depth;
    owned.assign(inner->begin(), inner->end());
  }
  EXPECT_EQ(to_string(*find_bytes_field(owned, 1)), "payload");
}

TEST(Proto, RepeatedFields) {
  ProtoWriter w;
  w.string_field(5, "a");
  w.varint_field(1, 9);
  w.string_field(5, "b");
  w.string_field(5, "c");
  const auto repeated = find_repeated_bytes(w.bytes(), 5);
  ASSERT_EQ(repeated.size(), 3u);
  EXPECT_EQ(to_string(repeated[0]), "a");
  EXPECT_EQ(to_string(repeated[2]), "c");
}

TEST(Proto, UnknownFieldsAreSkippable) {
  ProtoWriter w;
  w.varint_field(99, 5);
  w.string_field(2, "target");
  EXPECT_EQ(to_string(*find_bytes_field(w.bytes(), 2)), "target");
  EXPECT_FALSE(find_bytes_field(w.bytes(), 3).has_value());
  const auto unknown = ProtoReader(w.bytes()).next();
  ASSERT_TRUE(unknown);
  EXPECT_EQ(unknown->number, 99u);
  EXPECT_EQ(unknown->varint, 5u);
}

TEST(Proto, MalformedInputSetsError) {
  // Length-delimited field whose length exceeds the buffer.
  Bytes bad;
  put_varint(bad, (2ull << 3) | 2);  // field 2, length-delimited
  put_varint(bad, 100);              // claims 100 bytes
  bad.push_back('x');
  ProtoReader reader(bad);
  EXPECT_FALSE(reader.next());
  EXPECT_FALSE(reader.ok());

  // Field number 0 is invalid.
  const Bytes zero_field = {0x00};
  ProtoReader r2(zero_field);
  EXPECT_FALSE(r2.next());
  EXPECT_FALSE(r2.ok());

  // Wire type 3 (deprecated groups) unsupported.
  const Bytes group = {0x0b};
  ProtoReader r3(group);
  EXPECT_FALSE(r3.next());
  EXPECT_FALSE(r3.ok());
}

TEST(Proto, RandomizedWriterReaderRoundTrip) {
  Rng rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    ProtoWriter w;
    struct Expect {
      std::uint32_t number;
      bool is_bytes;
      std::uint64_t varint;
      Bytes bytes;
    };
    std::vector<Expect> expected;
    const int n = 1 + static_cast<int>(rng.uniform(10));
    for (int i = 0; i < n; ++i) {
      const auto field = static_cast<std::uint32_t>(1 + rng.uniform(200));
      if (rng.chance(0.5)) {
        const std::uint64_t v = rng.next_u64() >> rng.uniform(64);
        w.varint_field(field, v);
        expected.push_back({field, false, v, {}});
      } else {
        const Bytes data = rng.bytes(rng.uniform(64));
        w.bytes_field(field, data);
        expected.push_back({field, true, 0, data});
      }
    }
    ProtoReader reader(w.bytes());
    for (const auto& e : expected) {
      const auto f = reader.next();
      ASSERT_TRUE(f);
      EXPECT_EQ(f->number, e.number);
      if (e.is_bytes) EXPECT_TRUE(equal(f->bytes, e.bytes));
      else EXPECT_EQ(f->varint, e.varint);
    }
    EXPECT_FALSE(reader.next());
    EXPECT_TRUE(reader.ok());
  }
}

}  // namespace
}  // namespace bm::wire
