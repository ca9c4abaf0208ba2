#include "crypto/hmac.hpp"

#include <cstring>

namespace bm::crypto {

HmacSha256::HmacSha256(ByteView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const Digest d = sha256(key);
    std::memcpy(block.data(), d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> pad;
  for (std::size_t i = 0; i < 64; ++i) pad[i] = block[i] ^ 0x36;
  inner_.update(ByteView(pad.data(), pad.size()));
  for (std::size_t i = 0; i < 64; ++i) pad[i] = block[i] ^ 0x5c;
  outer_.update(ByteView(pad.data(), pad.size()));
}

Digest HmacSha256::mac(std::initializer_list<ByteView> parts) const {
  Sha256 inner = inner_;
  for (const ByteView& p : parts) inner.update(p);
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(digest_view(inner_digest));
  return outer.finish();
}

}  // namespace bm::crypto
