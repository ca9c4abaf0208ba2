#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define BM_CRC32_CLMUL 1
#endif

namespace bm {

namespace {
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
const std::array<std::uint32_t, 256> kTable = make_table();

#ifdef BM_CRC32_CLMUL

#define BM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

BM_CLMUL_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries 128 bits of remainder forward by the distance the constant pair
/// `k` encodes, and adds the next 128 bits of message.
BM_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ" (Intel, 2009), reflected for 0xEDB88320: four lanes fold
/// 64-byte strides, one lane takes 16-byte steps, Barrett reduces to 32
/// bits. `crc` is the pre-inverted register; `len` is 16k and at least 64.
BM_CLMUL_TARGET std::uint32_t fold_clmul(std::uint32_t crc,
                                         const std::uint8_t* p,
                                         std::size_t len) {
  // Each constant is x^n mod P, bit-reflected and shifted left by one.
  // n = 4*128+32 and 4*128-32: a 64-byte stride.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // n = 128+32 and 128-32: a 16-byte step.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);  // n = 64
  // P' (P with its x^32 term) and mu = x^64 / P, reflected.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16), x3 = load(p + 32), x4 = load(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(fold(fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits: the low half times k4, added to the high half; then
  // the low 32 bits times k5, added to the upper 64.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0));
  // Barrett: q = (low 32 bits * mu) mod x^32; the remainder is x1 ^ q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

#endif  // BM_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_bytewise(std::uint32_t crc, ByteView data) {
  crc = ~crc;
  for (const std::uint8_t byte : data)
    crc = kTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

bool crc32_has_clmul() {
#ifdef BM_CRC32_CLMUL
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & (1u << 1)) != 0 && (ecx & (1u << 19)) != 0;  // clmul, sse4.1
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t crc, ByteView data) {
#ifdef BM_CRC32_CLMUL
  // The kernel takes whole 16-byte blocks; the bytewise loop finishes the
  // last < 16 bytes and every input under 64.
  if (data.size() >= 64 && detail::crc32_has_clmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    crc = ~fold_clmul(~crc, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  return detail::crc32_bytewise(crc, data);
}

std::uint32_t crc32(ByteView data) { return crc32_update(0, data); }

}  // namespace bm
