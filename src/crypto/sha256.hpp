// SHA-256 (FIPS 180-4), implemented from scratch.
//
// A streaming interface mirrors the paper's HashCalculator module (§3.2),
// which computes block/transaction/endorsement hashes over byte streams as
// packet payloads arrive.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace bm::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// A SHA-256 block function: runs the compression function over `count`
/// consecutive 64-byte blocks, updating the eight-word `state` in place.
using Sha256BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                               std::size_t count);

/// The portable block function: the fallback, and the oracle for SHA-NI.
void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count);

/// The block function on the x86 SHA extensions, or null when the CPU lacks
/// them (asked once, by cpuid). Sha256 uses it whenever it is non-null.
Sha256BlockFn sha256_blocks_shani();

class Sha256 {
 public:
  Sha256();

  /// Absorb more message bytes; may be called any number of times.
  void update(ByteView data);

  /// Finish and return the digest. The object must not be reused afterwards
  /// without calling reset().
  Digest finish();

  /// Reinitialize to the empty-message state.
  void reset();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteView data);

/// Digest as an owned byte buffer (handy for wire-format fields).
Bytes digest_bytes(const Digest& d);

/// View over a digest's storage.
ByteView digest_view(const Digest& d);

}  // namespace bm::crypto
