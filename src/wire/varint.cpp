#include "wire/varint.hpp"

namespace bm::wire {

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::optional<std::uint64_t> get_varint(ByteView b, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= b.size()) return std::nullopt;
    const std::uint8_t byte = b[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      // Reject a 10th byte carrying bits beyond 64.
      if (shift == 63 && (byte >> 1) != 0) return std::nullopt;
      return v;
    }
  }
  return std::nullopt;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace bm::wire
