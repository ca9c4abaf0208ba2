// Protocol-buffers base-128 varints, from scratch.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace bm::wire {

/// Append the varint encoding of v (1-10 bytes).
void put_varint(Bytes& out, std::uint64_t v);

/// Decode a varint at `pos`, advancing it. nullopt on truncation or an
/// encoding longer than 10 bytes.
std::optional<std::uint64_t> get_varint(ByteView b, std::size_t& pos);

/// Number of bytes put_varint would emit.
std::size_t varint_size(std::uint64_t v);

}  // namespace bm::wire
