#include "bmac/identity_cache.hpp"

namespace bm::bmac {

std::optional<SenderIdentityCache::Lookup>
SenderIdentityCache::lookup_or_insert(ByteView cert_bytes) {
  const std::string_view key(reinterpret_cast<const char*>(cert_bytes.data()),
                             cert_bytes.size());
  if (const auto it = by_cert_.find(key); it != by_cert_.end())
    return Lookup{it->second, false};

  const auto cert = fabric::Certificate::unmarshal(cert_bytes);
  if (!cert) return std::nullopt;
  const auto id = msp_.encode(*cert);
  if (!id) return std::nullopt;
  by_cert_.emplace(key, *id);
  return Lookup{*id, true};
}

bool HwIdentityCache::insert(fabric::EncodedId id, ByteView cert_bytes) {
  auto cert = fabric::Certificate::unmarshal(cert_bytes);
  if (!cert) return false;
  entries_[id.value] =
      Entry{Bytes(cert_bytes.begin(), cert_bytes.end()), std::move(*cert)};
  return true;
}

const HwIdentityCache::Entry* HwIdentityCache::find(
    fabric::EncodedId id) const {
  const auto it = entries_.find(id.value);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

}  // namespace bm::bmac
