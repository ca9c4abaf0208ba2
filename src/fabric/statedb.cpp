#include "fabric/statedb.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace bm::fabric {

std::optional<VersionedValue> StateDb::get(const std::string& key) const {
  ++reads_;
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void StateDb::put(const std::string& key, Bytes value, Version version) {
  ++writes_;
  data_[key] = VersionedValue{std::move(value), version};
}

void StateDb::erase(const std::string& key) { data_.erase(key); }

bool StateDb::version_matches(const KVRead& read) const {
  ++reads_;
  const auto it = data_.find(read.key);
  if (it == data_.end()) return !read.version.has_value();
  return read.version.has_value() && *read.version == it->second.version;
}

void StateDb::WriteBatch::add(std::string key, Bytes value, Version version) {
  writes_.push_back(Write{std::move(key), std::move(value), version});
}

void StateDb::commit_batch(WriteBatch&& batch) {
  ++batch_commits_;
  writes_ += batch.writes_.size();
  for (auto& write : batch.writes_)
    data_[std::move(write.key)] =
        VersionedValue{std::move(write.value), write.version};
}

namespace {

constexpr std::uint32_t kSnapMagic = 0x424D5353;  // "BMSS"
constexpr std::uint32_t kSnapVersion = 1;
constexpr std::size_t kSnapHeaderSize = 12;  // magic + len + crc
constexpr std::uint32_t kSnapMaxFrame = 256u << 20;  // corrupt-length guard
// Entries are framed in this many key-hash buckets: the layout of the
// sharded store the format was defined with, kept so snapshot files (and
// the state-transfer byte counts built on them) stay byte-identical.
constexpr std::uint32_t kSnapBuckets = 8;

/// FNV-1a over the key bytes; never seeded, so bucket layout is stable.
std::uint64_t key_hash(const std::string& key) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

void snap_bytes(Bytes& out, ByteView v) {
  put_u32le(out, static_cast<std::uint32_t>(v.size()));
  bm::append(out, v);
}

void snap_string(Bytes& out, const std::string& v) {
  put_u32le(out, static_cast<std::uint32_t>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
}

/// Bounds-checked little-endian reader over one frame payload.
struct SnapReader {
  ByteView data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (pos + 4 > data.size()) {
      ok = false;
      return 0;
    }
    pos += 4;
    return get_u32le(data, pos - 4);
  }

  std::uint64_t u64() {
    if (pos + 8 > data.size()) {
      ok = false;
      return 0;
    }
    pos += 8;
    return get_u64le(data, pos - 8);
  }

  ByteView bytes() {
    const std::uint32_t n = u32();
    if (!ok || pos + n > data.size()) {
      ok = false;
      return {};
    }
    const ByteView v = data.subspan(pos, n);
    pos += n;
    return v;
  }
};

bool write_snap_frame(std::FILE* f, const Bytes& payload) {
  Bytes frame;
  put_u32le(frame, kSnapMagic);
  put_u32le(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame, crc32(payload));
  bm::append(frame, payload);
  return std::fwrite(frame.data(), 1, frame.size(), f) == frame.size();
}

/// Read one CRC-framed payload; false on EOF, bad magic, bad length or CRC.
bool read_snap_frame(std::FILE* f, Bytes* payload) {
  std::uint8_t header[kSnapHeaderSize];
  if (std::fread(header, 1, kSnapHeaderSize, f) != kSnapHeaderSize)
    return false;
  SnapReader reader{ByteView(header, kSnapHeaderSize)};
  if (reader.u32() != kSnapMagic) return false;
  const std::uint32_t len = reader.u32();
  const std::uint32_t crc = reader.u32();
  if (len > kSnapMaxFrame) return false;
  payload->resize(len);
  if (std::fread(payload->data(), 1, len, f) != len) return false;
  return crc32(*payload) == crc;
}

}  // namespace

bool StateDb::snapshot(const std::string& path,
                       const StateSnapshotMeta& meta) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;

  // Walking the sorted map leaves each bucket's entries sorted by key.
  using Entry = decltype(data_)::value_type;
  std::array<std::vector<const Entry*>, kSnapBuckets> buckets;
  for (const Entry& entry : data_)
    buckets[key_hash(entry.first) % kSnapBuckets].push_back(&entry);
  const auto frames = static_cast<std::uint32_t>(
      std::count_if(buckets.begin(), buckets.end(),
                    [](const auto& bucket) { return !bucket.empty(); }));

  Bytes header;
  put_u32le(header, kSnapVersion);
  put_u64le(header, meta.height);
  snap_bytes(header, meta.commit_hash);
  snap_bytes(header, meta.header_hash);
  put_u32le(header, kSnapBuckets);
  put_u32le(header, frames);
  put_u64le(header, data_.size());
  bool ok = write_snap_frame(f, header);

  Bytes payload;
  for (std::uint32_t b = 0; b < kSnapBuckets && ok; ++b) {
    if (buckets[b].empty()) continue;
    payload.clear();
    put_u32le(payload, b);
    put_u64le(payload, buckets[b].size());
    for (const Entry* entry : buckets[b]) {
      snap_string(payload, entry->first);
      snap_bytes(payload, entry->second.value);
      put_u64le(payload, entry->second.version.block_num);
      put_u32le(payload, entry->second.version.tx_num);
    }
    ok = write_snap_frame(f, payload);
  }
  ok = std::fflush(f) == 0 && ok;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::optional<StateSnapshotMeta> StateDb::restore(const std::string& path) {
  clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;

  Bytes payload;
  StateSnapshotMeta meta;
  std::uint32_t frames = 0;
  std::uint64_t key_count = 0;
  {
    if (!read_snap_frame(f, &payload)) {
      std::fclose(f);
      return std::nullopt;
    }
    SnapReader reader{payload};
    const std::uint32_t version = reader.u32();
    meta.height = reader.u64();
    const ByteView commit = reader.bytes();
    meta.commit_hash.assign(commit.begin(), commit.end());
    const ByteView header_hash = reader.bytes();
    meta.header_hash.assign(header_hash.begin(), header_hash.end());
    reader.u32();  // bucket count: informational only
    frames = reader.u32();
    key_count = reader.u64();
    if (!reader.ok || version != kSnapVersion ||
        reader.pos != payload.size()) {
      std::fclose(f);
      return std::nullopt;
    }
  }

  std::uint64_t restored = 0;
  for (std::uint32_t frame = 0; frame < frames; ++frame) {
    if (!read_snap_frame(f, &payload)) {
      std::fclose(f);
      clear();
      return std::nullopt;
    }
    SnapReader reader{payload};
    reader.u32();  // bucket index: keys land in the map by value
    const std::uint64_t entries = reader.u64();
    for (std::uint64_t e = 0; e < entries && reader.ok; ++e) {
      const ByteView key_bytes = reader.bytes();
      std::string key(key_bytes.begin(), key_bytes.end());
      const ByteView value = reader.bytes();
      Version version;
      version.block_num = reader.u64();
      version.tx_num = reader.u32();
      if (!reader.ok) break;
      put(std::move(key), Bytes(value.begin(), value.end()), version);
      ++restored;
    }
    if (!reader.ok || reader.pos != payload.size()) {
      std::fclose(f);
      clear();
      return std::nullopt;
    }
  }
  // Exactly the promised keys, and nothing after the last frame.
  const bool trailing = std::fgetc(f) != EOF;
  std::fclose(f);
  if (restored != key_count || trailing) {
    clear();
    return std::nullopt;
  }
  return meta;
}

std::string StateDb::namespaced(const std::string& chaincode,
                                const std::string& key) {
  std::string out;
  out.reserve(chaincode.size() + 1 + key.size());
  out += chaincode;
  out += '\0';
  out += key;
  return out;
}

void StateDb::publish_metrics(obs::Registry& registry,
                              const std::string& prefix) const {
  registry.counter(prefix + "_reads_total", "state database reads")
      .set(reads_);
  registry.counter(prefix + "_writes_total", "state database writes")
      .set(writes_);
  registry.counter(prefix + "_batch_commits_total", "batched block commits")
      .set(batch_commits_);
  registry.gauge(prefix + "_keys", "keys currently stored")
      .set(static_cast<double>(data_.size()));
}

void HistoryDb::record(const std::string& key, Version version) {
  data_[key].push_back(version);
}

const std::vector<Version>* HistoryDb::history(const std::string& key) const {
  const auto it = data_.find(key);
  return it == data_.end() ? nullptr : &it->second;
}

}  // namespace bm::fabric
