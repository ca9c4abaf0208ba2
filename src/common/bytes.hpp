// Byte-buffer primitives shared by every module.
//
// The whole code base passes immutable byte ranges as `ByteView`
// (a std::span of const bytes) and owns data as `Bytes`. Helpers here cover
// the common slicing / concatenation / integer packing patterns used by the
// wire format, the crypto layer and the BMac protocol.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bm {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Bytes of a string's characters (no terminator).
Bytes to_bytes(std::string_view s);

/// Interpret a byte range as text (caller asserts it is printable).
std::string to_string(ByteView b);

/// Constant-free equality (ranges compared element-wise).
bool equal(ByteView a, ByteView b);

/// Append `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// Concatenate any number of views into a fresh buffer.
Bytes concat(std::initializer_list<ByteView> parts);

/// Sub-view helpers; `offset + len` must be within range.
ByteView slice(ByteView b, std::size_t offset, std::size_t len);

/// Big-endian fixed-width packing (network order, used by packet headers).
void put_u16be(Bytes& dst, std::uint16_t v);
void put_u32be(Bytes& dst, std::uint32_t v);
void put_u64be(Bytes& dst, std::uint64_t v);
std::uint16_t get_u16be(ByteView b, std::size_t offset);
std::uint32_t get_u32be(ByteView b, std::size_t offset);
std::uint64_t get_u64be(ByteView b, std::size_t offset);

/// Little-endian fixed-width packing (the block log, StateDb snapshots and
/// go-back-N frames).
void put_u32le(Bytes& dst, std::uint32_t v);
void put_u64le(Bytes& dst, std::uint64_t v);
std::uint32_t get_u32le(ByteView b, std::size_t offset);
std::uint64_t get_u64le(ByteView b, std::size_t offset);

}  // namespace bm
