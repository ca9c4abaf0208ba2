#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define BM_SHA256_SHANI 1
#endif

namespace bm::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef BM_SHA256_SHANI

#define BM_SHANI_TARGET __attribute__((target("sha,sse4.1")))

/// Four big-endian message words.
BM_SHANI_TARGET inline __m128i load4(const std::uint8_t* p) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          byteswap);
}

/// Four rounds: message words `w` plus the round constants k[0..3].
BM_SHANI_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                    const std::uint32_t* k) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four schedule words from the previous sixteen (w0 oldest):
/// W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
BM_SHANI_TARGET inline __m128i schedule4(__m128i w0, __m128i w1, __m128i w2,
                                         __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

/// Intel's SHA-extensions round structure: the state as ABEF/CDGH lane
/// pairs, two rounds per sha256rnds2.
BM_SHANI_TARGET void blocks_shani(std::uint32_t* state,
                                  const std::uint8_t* blocks,
                                  std::size_t count) {
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  dcba = _mm_shuffle_epi32(dcba, 0xB1);                 // CDAB
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);                 // EFGH
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);        // ABEF
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);     // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load4(blocks);
    __m128i w1 = load4(blocks + 16);
    __m128i w2 = load4(blocks + 32);
    __m128i w3 = load4(blocks + 48);
    rounds4(abef, cdgh, w0, kRound);
    rounds4(abef, cdgh, w1, kRound + 4);
    rounds4(abef, cdgh, w2, kRound + 8);
    rounds4(abef, cdgh, w3, kRound + 12);
    for (int t = 16; t < 64; t += 16) {
      w0 = schedule4(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, kRound + t);
      w1 = schedule4(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, kRound + t + 4);
      w2 = schedule4(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, kRound + t + 8);
      w3 = schedule4(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, kRound + t + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));     // HGFE
}

bool cpu_has_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse41 && (ebx & (1u << 29)) != 0;
}

#endif  // BM_SHA256_SHANI

/// SHA-NI when the CPU has it, else the scalar rounds.
Sha256BlockFn block_fn() {
  const Sha256BlockFn shani = sha256_blocks_shani();
  return shani != nullptr ? shani : sha256_blocks_scalar;
}

}  // namespace

void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(block[4 * i]) << 24) |
             (std::uint32_t(block[4 * i + 1]) << 16) |
             (std::uint32_t(block[4 * i + 2]) << 8) |
             std::uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

Sha256BlockFn sha256_blocks_shani() {
#ifdef BM_SHA256_SHANI
  static const Sha256BlockFn fn = cpu_has_shani() ? blocks_shani : nullptr;
  return fn;
#else
  return nullptr;
#endif
}

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(ByteView data) {
  // An empty view may carry a null pointer, which memcpy must never see.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos += take;
    if (buffer_len_ == 64) {
      block_fn()(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - pos) / 64;
  if (blocks > 0) {
    block_fn()(state_.data(), data.data() + pos, blocks);
    pos += 64 * blocks;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

Digest Sha256::finish() {
  // Pad in place: 0x80, zeros up to byte 56 of a block, the bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    block_fn()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  block_fn()(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

ByteView digest_view(const Digest& d) { return ByteView(d.data(), d.size()); }

}  // namespace bm::crypto
