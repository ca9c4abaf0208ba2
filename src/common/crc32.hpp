// CRC-32 (IEEE 802.3 polynomial, reflected) for on-disk record integrity.
#pragma once

#include "common/bytes.hpp"

namespace bm {

std::uint32_t crc32(ByteView data);

/// Incremental form: pass the previous result to continue a running CRC.
std::uint32_t crc32_update(std::uint32_t crc, ByteView data);

namespace detail {

/// The per-byte table loop: the fallback, the tail of every input, and the
/// oracle for the carry-less-multiply kernel.
std::uint32_t crc32_bytewise(std::uint32_t crc, ByteView data);

/// True when crc32_update folds inputs of 64 bytes and more with PCLMULQDQ
/// (asked once, by cpuid).
bool crc32_has_clmul();

}  // namespace detail

}  // namespace bm
