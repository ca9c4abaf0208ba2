// Identity caches: sender-side (software) and receiver-side (hardware).
//
// The sender maps certificate bytes -> 16-bit encoded id and remembers which
// ids the hardware already knows; on a miss it emits an identity-sync packet
// so the hardware cache stays in step (§3.2: "The identity cache is
// initialized and updated by the sender"). The hardware cache maps id ->
// certificate (and its pre-extracted public key, which the DataProcessor
// post-processor would otherwise pull out of the X.509 bytes each time).
#pragma once

#include <map>
#include <string_view>

#include "fabric/identity.hpp"

namespace bm::bmac {

class SenderIdentityCache {
 public:
  explicit SenderIdentityCache(const fabric::Msp& msp) : msp_(msp) {}

  struct Lookup {
    fabric::EncodedId id;
    bool newly_inserted = false;  ///< sender must emit an identity sync
  };

  /// Resolve certificate bytes to an encoded id. Certificates that do not
  /// chain to a registered org return nullopt (the section is then sent
  /// unmodified for that identity — the hardware will fail verification,
  /// matching the software peer's rejection).
  std::optional<Lookup> lookup_or_insert(ByteView cert_bytes);

  std::size_t size() const { return by_cert_.size(); }

 private:
  const fabric::Msp& msp_;
  /// Keyed by the marshaled certificate, found by a view of its bytes.
  std::map<std::string, fabric::EncodedId, std::less<>> by_cert_;
};

class HwIdentityCache {
 public:
  struct Entry {
    Bytes cert_bytes;
    fabric::Certificate cert;  ///< parsed once at insertion
  };

  /// Insert or overwrite; returns false if the certificate fails to parse.
  bool insert(fabric::EncodedId id, ByteView cert_bytes);

  const Entry* find(fabric::EncodedId id) const;
  std::size_t size() const { return entries_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::map<std::uint16_t, Entry> entries_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace bm::bmac
