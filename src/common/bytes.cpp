#include "common/bytes.hpp"

#include <cassert>

namespace bm {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(ByteView b) {
  return std::string(b.begin(), b.end());
}

bool equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0;
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) append(out, p);
  return out;
}

ByteView slice(ByteView b, std::size_t offset, std::size_t len) {
  assert(offset + len <= b.size());
  return b.subspan(offset, len);
}

void put_u16be(Bytes& dst, std::uint16_t v) {
  dst.push_back(static_cast<std::uint8_t>(v >> 8));
  dst.push_back(static_cast<std::uint8_t>(v));
}

void put_u32be(Bytes& dst, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    dst.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_u64be(Bytes& dst, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    dst.push_back(static_cast<std::uint8_t>(v >> shift));
}

std::uint16_t get_u16be(ByteView b, std::size_t offset) {
  assert(offset + 2 <= b.size());
  return static_cast<std::uint16_t>((b[offset] << 8) | b[offset + 1]);
}

std::uint32_t get_u32be(ByteView b, std::size_t offset) {
  assert(offset + 4 <= b.size());
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v = (v << 8) | b[offset + i];
  return v;
}

std::uint64_t get_u64be(ByteView b, std::size_t offset) {
  assert(offset + 8 <= b.size());
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | b[offset + i];
  return v;
}

void put_u32le(Bytes& dst, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    dst.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_u64le(Bytes& dst, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    dst.push_back(static_cast<std::uint8_t>(v >> shift));
}

std::uint32_t get_u32le(ByteView b, std::size_t offset) {
  assert(offset + 4 <= b.size());
  std::uint32_t v = 0;
  for (std::size_t i = 4; i-- > 0;) v = (v << 8) | b[offset + i];
  return v;
}

std::uint64_t get_u64le(ByteView b, std::size_t offset) {
  assert(offset + 8 <= b.size());
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) v = (v << 8) | b[offset + i];
  return v;
}

}  // namespace bm
