// Identities, X.509-style certificates and the membership service provider.
//
// Every Fabric node owns a certificate issued by its organization's CA.
// Certificates dominate block size (~860 bytes each, ≥73% of a block per
// §3.2), which is exactly what the BMac protocol's DataRemover exploits by
// replacing them with 16-bit encoded ids:
//   [15:8] organization index, [7:4] role, [3:0] node sequence in its org.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"

namespace bm::fabric {

enum class Role : std::uint8_t {
  kOrderer = 0,
  kAdmin = 1,
  kPeer = 2,
  kClient = 3,
};

/// The 16-bit encoded identity used on the wire by the BMac protocol.
struct EncodedId {
  std::uint16_t value = 0;

  static EncodedId make(std::uint8_t org, Role role, std::uint8_t seq);
  std::uint8_t org() const { return static_cast<std::uint8_t>(value >> 8); }
  Role role() const { return static_cast<Role>((value >> 4) & 0xF); }
  std::uint8_t seq() const { return static_cast<std::uint8_t>(value & 0xF); }

  auto operator<=>(const EncodedId&) const = default;
};

/// X.509-like certificate. Marshaled size is calibrated to ~860 bytes to
/// match the paper's measurement of real Fabric identities.
struct Certificate {
  std::uint32_t version = 3;
  Bytes serial;               ///< 16 bytes
  std::string issuer_cn;      ///< e.g. "ca.org1.example.com"
  std::string subject_cn;     ///< e.g. "peer0.org1.example.com"
  std::string org_name;       ///< e.g. "Org1"
  Role role = Role::kPeer;
  std::uint8_t sequence = 0;  ///< node index within its org and role
  std::uint64_t not_before = 0;
  std::uint64_t not_after = 0;
  crypto::PublicKey public_key;
  Bytes subject_key_id;    ///< 20 bytes
  Bytes authority_key_id;  ///< 20 bytes
  std::string crl_url;
  Bytes extensions;  ///< representative extension payload (SANs, OIDs, ...)
  Bytes ca_signature;  ///< CA's ECDSA signature over the TBS bytes (DER)

  /// Marshal to the canonical wire encoding (used for hashing, signing and
  /// as the map key in identity caches).
  Bytes marshal() const;
  static std::optional<Certificate> unmarshal(ByteView data);

  /// The to-be-signed portion (everything except ca_signature).
  Bytes tbs_bytes() const;
};

/// A node identity: certificate plus its private key.
struct Identity {
  Certificate cert;
  crypto::PrivateKey key;

  crypto::Signature sign(const crypto::Digest& digest) const {
    return crypto::sign(key, digest);
  }
};

/// Per-organization certificate authority. Issues node certificates and is
/// itself identified by a self-signed root.
class CertificateAuthority {
 public:
  CertificateAuthority(std::string org_name, std::uint8_t org_index);

  /// Issue a certificate for a node; `seq` is the per-role node index.
  Identity issue(Role role, std::uint8_t seq, const std::string& host) const;

  const Certificate& root_cert() const { return root_.cert; }
  const std::string& org_name() const { return org_.first; }
  std::uint8_t org_index() const { return org_.second; }

  /// Verify a certificate chains to this CA.
  bool verify_cert(const Certificate& cert) const;

 private:
  std::pair<std::string, std::uint8_t> org_;
  Identity root_;
};

/// Membership service provider: the network-wide registry of organizations
/// and certificates. Maps certificates to encoded ids and validates
/// signature chains — the trust anchor both peers and the BMac identity
/// cache are initialized from.
class Msp {
 public:
  Msp() = default;

  // Movable (setup-time only: must not race with concurrent validate()).
  // The cache mutex is not moved; the destination starts with its own.
  Msp(Msp&& other) noexcept
      : orgs_(std::move(other.orgs_)),
        by_name_(std::move(other.by_name_)),
        validation_cache_(std::move(other.validation_cache_)) {}
  Msp& operator=(Msp&& other) noexcept {
    orgs_ = std::move(other.orgs_);
    by_name_ = std::move(other.by_name_);
    validation_cache_ = std::move(other.validation_cache_);
    return *this;
  }

  /// Register an organization; returns its CA. Org indices are assigned in
  /// registration order starting at 1.
  CertificateAuthority& add_org(const std::string& name);

  const CertificateAuthority* find_org(const std::string& name) const;
  const CertificateAuthority* find_org(std::uint8_t index) const;
  std::size_t org_count() const { return orgs_.size(); }
  std::vector<std::string> org_names() const;

  /// Validate that a certificate was issued by a registered CA. Safe to call
  /// concurrently (the parallel vscc path does); the result cache is
  /// mutex-guarded and chain verification itself is pure.
  bool validate(const Certificate& cert) const;

  /// Encoded id for a certificate (derived from its org/role/sequence).
  std::optional<EncodedId> encode(const Certificate& cert) const;

 private:
  std::vector<std::unique_ptr<CertificateAuthority>> orgs_;
  std::map<std::string, std::size_t> by_name_;
  /// Validation results keyed by (issuer, subject, serial) — Fabric peers
  /// likewise cache deserialized/validated identities. Guarded by
  /// cache_mutex_; concurrent misses may verify the same chain twice, which
  /// is deterministic (both compute the same value).
  mutable std::mutex cache_mutex_;
  mutable std::map<std::string, bool> validation_cache_;
};

}  // namespace bm::fabric
