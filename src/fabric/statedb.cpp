#include "fabric/statedb.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace bm::fabric {

namespace {

/// FNV-1a over the key bytes. Stable across runs (never seeded): the shard
/// layout is part of no observable output, but determinism keeps the
/// contention metrics reproducible.
std::uint64_t key_hash(const std::string& key) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

StateDb::StateDb(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::size_t StateDb::shard_of(const std::string& key) const {
  return static_cast<std::size_t>(key_hash(key) % shards_.size());
}

std::optional<VersionedValue> StateDb::get(const std::string& key) const {
  const Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.reads;
  const auto it = shard.data.find(key);
  if (it == shard.data.end()) return std::nullopt;
  return it->second;
}

void StateDb::put(const std::string& key, Bytes value, Version version) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.writes;
  shard.data[key] = VersionedValue{std::move(value), version};
}

void StateDb::erase(const std::string& key) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.data.erase(key);
}

bool StateDb::version_matches(const KVRead& read) const {
  const Shard& shard = *shards_[shard_of(read.key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.reads;
  const auto it = shard.data.find(read.key);
  if (it == shard.data.end()) return !read.version.has_value();
  return read.version.has_value() && *read.version == it->second.version;
}

std::size_t StateDb::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->data.size();
  }
  return total;
}

void StateDb::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->data.clear();
  }
}

void StateDb::WriteBatch::add(std::string key, Bytes value, Version version) {
  const std::size_t shard =
      static_cast<std::size_t>(key_hash(key) % per_shard_.size());
  per_shard_[shard].push_back(
      Write{std::move(key), std::move(value), version});
  ++total_;
}

void StateDb::commit_batch(WriteBatch&& batch, ThreadPool* pool) {
  // A batch built against a different shard count cannot be applied: the
  // grouping would route keys to the wrong shards.
  if (batch.per_shard_.size() != shards_.size()) {
    for (auto& group : batch.per_shard_)
      for (auto& write : group)
        put(std::move(write.key), std::move(write.value), write.version);
    ++batch_commits_;
    return;
  }
  ++batch_commits_;
  const auto apply_shard = [&](std::size_t s) {
    auto& group = batch.per_shard_[s];
    if (group.empty()) return;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.writes += group.size();
    for (auto& write : group)
      shard.data[std::move(write.key)] =
          VersionedValue{std::move(write.value), write.version};
  };
  std::uint64_t touched = 0;
  for (const auto& group : batch.per_shard_)
    if (!group.empty()) ++touched;
  batch_shard_grabs_ += touched;
  if (pool != nullptr && touched > 1) {
    pool->parallel_for(shards_.size(), apply_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) apply_shard(s);
  }
}

namespace {

constexpr std::uint32_t kSnapMagic = 0x424D5353;  // "BMSS"
constexpr std::uint32_t kSnapVersion = 1;
constexpr std::size_t kSnapHeaderSize = 12;  // magic + len + crc
constexpr std::uint32_t kSnapMaxFrame = 256u << 20;  // corrupt-length guard

void snap_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void snap_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void snap_bytes(Bytes& out, ByteView v) {
  snap_u32(out, static_cast<std::uint32_t>(v.size()));
  bm::append(out, v);
}

void snap_string(Bytes& out, const std::string& v) {
  snap_u32(out, static_cast<std::uint32_t>(v.size()));
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
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
      v = (v << 8) | data[pos + static_cast<std::size_t>(i)];
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    if (pos + 8 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
      v = (v << 8) | data[pos + static_cast<std::size_t>(i)];
    pos += 8;
    return v;
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
  snap_u32(frame, kSnapMagic);
  snap_u32(frame, static_cast<std::uint32_t>(payload.size()));
  snap_u32(frame, crc32(payload));
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

  std::vector<std::uint32_t> populated;
  std::uint64_t key_count = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    if (shards_[s]->data.empty()) continue;
    populated.push_back(s);
    key_count += shards_[s]->data.size();
  }

  Bytes header;
  snap_u32(header, kSnapVersion);
  snap_u64(header, meta.height);
  snap_bytes(header, meta.commit_hash);
  snap_bytes(header, meta.header_hash);
  snap_u32(header, static_cast<std::uint32_t>(shards_.size()));
  snap_u32(header, static_cast<std::uint32_t>(populated.size()));
  snap_u64(header, key_count);
  bool ok = write_snap_frame(f, header);

  Bytes payload;
  for (const std::uint32_t s : populated) {
    if (!ok) break;
    payload.clear();
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    snap_u32(payload, s);
    snap_u64(payload, shards_[s]->data.size());
    for (const auto& [key, value] : shards_[s]->data) {
      snap_string(payload, key);
      snap_bytes(payload, value.value);
      snap_u64(payload, value.version.block_num);
      snap_u32(payload, value.version.tx_num);
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
    reader.u32();  // writer's shard count: informational only
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
    reader.u32();  // writer's shard index: keys re-route by hash below
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

std::uint64_t StateDb::total_reads() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->reads;
  }
  return total;
}

std::uint64_t StateDb::total_writes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->writes;
  }
  return total;
}

void StateDb::publish_metrics(obs::Registry& registry,
                              const std::string& prefix) const {
  registry.counter(prefix + "_reads_total", "state database reads")
      .set(total_reads());
  registry.counter(prefix + "_writes_total", "state database writes")
      .set(total_writes());
  registry.counter(prefix + "_batch_commits_total", "batched block commits")
      .set(batch_commits_);
  registry
      .counter(prefix + "_batch_shard_grabs_total",
               "per-shard lock acquisitions made by batched commits")
      .set(batch_shard_grabs_);
  registry.gauge(prefix + "_keys", "keys currently stored")
      .set(static_cast<double>(size()));
  registry.gauge(prefix + "_shards", "key-hash shard count")
      .set(static_cast<double>(shards_.size()));
  // Keyspace balance: max shard size / mean shard size (1.0 = even).
  std::size_t max_shard = 0, total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    max_shard = std::max(max_shard, shard->data.size());
    total += shard->data.size();
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  registry
      .gauge(prefix + "_shard_imbalance",
             "largest shard relative to the mean (1.0 = even spread)")
      .set(mean > 0 ? static_cast<double>(max_shard) / mean : 0.0);
}

void HistoryDb::record(const std::string& key, Version version) {
  data_[key].push_back(version);
}

const std::vector<Version>* HistoryDb::history(const std::string& key) const {
  const auto it = data_.find(key);
  return it == data_.end() ? nullptr : &it->second;
}

}  // namespace bm::fabric
