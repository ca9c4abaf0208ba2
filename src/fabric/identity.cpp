#include "fabric/identity.hpp"

#include <memory>

#include "crypto/der.hpp"

#include "wire/proto.hpp"

namespace bm::fabric {

namespace {

// Certificate wire fields.
enum CertField : std::uint32_t {
  kVersion = 1,
  kSerial = 2,
  kIssuerCn = 3,
  kSubjectCn = 4,
  kOrgName = 5,
  kRole = 6,
  kSequence = 7,
  kNotBefore = 8,
  kNotAfter = 9,
  kPublicKey = 10,
  kSubjectKeyId = 11,
  kAuthorityKeyId = 12,
  kCrlUrl = 13,
  kExtensions = 14,
  kCaSignature = 15,
};

/// Size of the representative extensions blob. Chosen so that a marshaled
/// certificate lands at ~860 bytes, the per-identity size the paper measured
/// in real Fabric blocks (§3.2).
constexpr std::size_t kExtensionsSize = 560;

Bytes make_extensions(const crypto::PublicKey& key) {
  // Deterministic filler derived from the key so certificates differ but a
  // given identity always marshals identically.
  Bytes out;
  out.reserve(kExtensionsSize);
  crypto::Digest d = crypto::sha256(key.encode());
  while (out.size() < kExtensionsSize) {
    append(out, crypto::digest_view(d));
    d = crypto::sha256(crypto::digest_view(d));
  }
  out.resize(kExtensionsSize);
  return out;
}

}  // namespace

EncodedId EncodedId::make(std::uint8_t org, Role role, std::uint8_t seq) {
  return EncodedId{static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(org) << 8) |
      (static_cast<std::uint16_t>(role) << 4) | (seq & 0xF))};
}

Bytes Certificate::tbs_bytes() const {
  wire::ProtoWriter w;
  w.varint_field(kVersion, version);
  w.bytes_field(kSerial, serial);
  w.string_field(kIssuerCn, issuer_cn);
  w.string_field(kSubjectCn, subject_cn);
  w.string_field(kOrgName, org_name);
  w.varint_field(kRole, static_cast<std::uint64_t>(role));
  w.varint_field(kSequence, sequence);
  w.varint_field(kNotBefore, not_before);
  w.varint_field(kNotAfter, not_after);
  w.bytes_field(kPublicKey, public_key.encode());
  w.bytes_field(kSubjectKeyId, subject_key_id);
  w.bytes_field(kAuthorityKeyId, authority_key_id);
  w.string_field(kCrlUrl, crl_url);
  w.bytes_field(kExtensions, extensions);
  return w.take();
}

Bytes Certificate::marshal() const {
  wire::ProtoWriter w;
  // The TBS fields followed by the CA signature, like DER certificates.
  Bytes tbs = tbs_bytes();
  Bytes out = std::move(tbs);
  wire::ProtoWriter sig;
  sig.bytes_field(kCaSignature, ca_signature);
  append(out, sig.bytes());
  return out;
}

std::optional<Certificate> Certificate::unmarshal(ByteView data) {
  Certificate cert;
  bool have_key = false;
  wire::ProtoReader reader(data);
  while (auto f = reader.next()) {
    switch (f->number) {
      case kVersion: cert.version = static_cast<std::uint32_t>(f->varint); break;
      case kSerial: cert.serial.assign(f->bytes.begin(), f->bytes.end()); break;
      case kIssuerCn: cert.issuer_cn = to_string(f->bytes); break;
      case kSubjectCn: cert.subject_cn = to_string(f->bytes); break;
      case kOrgName: cert.org_name = to_string(f->bytes); break;
      case kRole: cert.role = static_cast<Role>(f->varint); break;
      case kSequence: cert.sequence = static_cast<std::uint8_t>(f->varint); break;
      case kNotBefore: cert.not_before = f->varint; break;
      case kNotAfter: cert.not_after = f->varint; break;
      case kPublicKey: {
        auto key = crypto::PublicKey::decode(f->bytes);
        if (!key) return std::nullopt;
        cert.public_key = *key;
        have_key = true;
        break;
      }
      case kSubjectKeyId:
        cert.subject_key_id.assign(f->bytes.begin(), f->bytes.end());
        break;
      case kAuthorityKeyId:
        cert.authority_key_id.assign(f->bytes.begin(), f->bytes.end());
        break;
      case kCrlUrl: cert.crl_url = to_string(f->bytes); break;
      case kExtensions:
        cert.extensions.assign(f->bytes.begin(), f->bytes.end());
        break;
      case kCaSignature:
        cert.ca_signature.assign(f->bytes.begin(), f->bytes.end());
        break;
      default: break;  // unknown fields are skipped, like protobuf
    }
  }
  if (!reader.ok() || !have_key) return std::nullopt;
  return cert;
}

CertificateAuthority::CertificateAuthority(std::string org_name,
                                           std::uint8_t org_index)
    : org_{std::move(org_name), org_index},
      root_{Certificate{}, crypto::PrivateKey{}} {
  const std::string cn = "ca." + org_.first + ".example.com";
  root_.key = crypto::key_from_seed(to_bytes("ca-key:" + cn));

  Certificate& cert = root_.cert;
  cert.serial = crypto::digest_bytes(crypto::sha256(to_bytes(cn)));
  cert.serial.resize(16);
  cert.issuer_cn = cn;  // self-signed
  cert.subject_cn = cn;
  cert.org_name = org_.first;
  cert.role = Role::kAdmin;
  cert.sequence = 0;
  cert.not_before = 1'600'000'000;
  cert.not_after = 1'900'000'000;
  cert.public_key = root_.key.public_key();
  Bytes ski = crypto::digest_bytes(crypto::sha256(cert.public_key.encode()));
  ski.resize(20);
  cert.subject_key_id = ski;
  cert.authority_key_id = ski;
  cert.crl_url = "http://crl." + org_.first + ".example.com/root.crl";
  cert.extensions = make_extensions(cert.public_key);
  cert.ca_signature = crypto::der_encode_signature(
      crypto::sign(root_.key, crypto::sha256(cert.tbs_bytes())));
}

Identity CertificateAuthority::issue(Role role, std::uint8_t seq,
                                     const std::string& host) const {
  Identity id{Certificate{}, crypto::key_from_seed(to_bytes(
                                 "node-key:" + org_.first + ":" + host))};
  Certificate& cert = id.cert;
  cert.serial = crypto::digest_bytes(crypto::sha256(to_bytes(host)));
  cert.serial.resize(16);
  cert.issuer_cn = root_.cert.subject_cn;
  cert.subject_cn = host;
  cert.org_name = org_.first;
  cert.role = role;
  cert.sequence = seq;
  cert.not_before = 1'600'000'000;
  cert.not_after = 1'900'000'000;
  cert.public_key = id.key.public_key();
  Bytes ski = crypto::digest_bytes(crypto::sha256(cert.public_key.encode()));
  ski.resize(20);
  cert.subject_key_id = ski;
  cert.authority_key_id = root_.cert.subject_key_id;
  cert.crl_url = root_.cert.crl_url;
  cert.extensions = make_extensions(cert.public_key);
  cert.ca_signature = crypto::der_encode_signature(
      crypto::sign(root_.key, crypto::sha256(cert.tbs_bytes())));
  return id;
}

bool CertificateAuthority::verify_cert(const Certificate& cert) const {
  if (cert.issuer_cn != root_.cert.subject_cn) return false;
  const auto sig = crypto::der_decode_signature(cert.ca_signature);
  if (!sig) return false;
  return crypto::verify(root_.cert.public_key,
                        crypto::sha256(cert.tbs_bytes()), *sig);
}

CertificateAuthority& Msp::add_org(const std::string& name) {
  const auto index = static_cast<std::uint8_t>(orgs_.size() + 1);
  orgs_.push_back(std::make_unique<CertificateAuthority>(name, index));
  by_name_[name] = orgs_.size() - 1;
  return *orgs_.back();
}

const CertificateAuthority* Msp::find_org(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : orgs_[it->second].get();
}

const CertificateAuthority* Msp::find_org(std::uint8_t index) const {
  if (index == 0 || index > orgs_.size()) return nullptr;
  return orgs_[index - 1].get();
}

std::vector<std::string> Msp::org_names() const {
  std::vector<std::string> names;
  names.reserve(orgs_.size());
  for (const auto& org : orgs_) names.push_back(org->org_name());
  return names;
}

bool Msp::validate(const Certificate& cert) const {
  std::string key;
  key.reserve(cert.issuer_cn.size() + cert.subject_cn.size() + 20);
  key += cert.issuer_cn;
  key += '|';
  key += cert.subject_cn;
  key += '|';
  key.append(cert.serial.begin(), cert.serial.end());
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const auto it = validation_cache_.find(key);
        it != validation_cache_.end())
      return it->second;
  }
  // Verify outside the lock: chain verification is the expensive part and is
  // pure, so concurrent misses at worst duplicate work.
  const CertificateAuthority* ca = find_org(cert.org_name);
  const bool valid = ca != nullptr && ca->verify_cert(cert);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  validation_cache_[key] = valid;
  return valid;
}

std::optional<EncodedId> Msp::encode(const Certificate& cert) const {
  const CertificateAuthority* ca = find_org(cert.org_name);
  if (ca == nullptr) return std::nullopt;
  return EncodedId::make(ca->org_index(), cert.role, cert.sequence);
}

}  // namespace bm::fabric
