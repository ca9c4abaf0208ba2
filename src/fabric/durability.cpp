#include "fabric/durability.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "obs/metrics.hpp"

namespace bm::fabric {

namespace {

/// The suffix of every "<log>.snap.<suffix>" file next to the log.
std::vector<std::string> snapshot_suffixes(const DurabilityConfig& config) {
  std::vector<std::string> suffixes;
  const std::filesystem::path log(config.ledger_path);
  const std::string prefix = log.filename().string() + ".snap.";
  std::filesystem::path dir = log.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0)
      suffixes.push_back(name.substr(prefix.size()));
  }
  return suffixes;
}

/// Snapshot heights found next to the log, newest first.
std::vector<std::uint64_t> list_snapshots(const DurabilityConfig& config) {
  std::vector<std::uint64_t> heights;
  for (const std::string& digits : snapshot_suffixes(config))
    if (digits.find_first_not_of("0123456789") == std::string::npos)
      heights.push_back(std::stoull(digits));
  std::sort(heights.rbegin(), heights.rend());
  return heights;
}

crypto::Digest digest_from(const Bytes& bytes) {
  crypto::Digest digest{};
  if (bytes.size() == digest.size())
    std::copy(bytes.begin(), bytes.end(), digest.begin());
  return digest;
}

}  // namespace

void DurableLedger::remove_files(const DurabilityConfig& config) {
  std::error_code ec;
  std::filesystem::remove(config.ledger_path, ec);
  for (const std::string& suffix : snapshot_suffixes(config))
    std::filesystem::remove(config.ledger_path + ".snap." + suffix, ec);
}

std::string DurableLedger::snapshot_path(const DurabilityConfig& config,
                                         std::uint64_t height) {
  return config.ledger_path + ".snap." + std::to_string(height);
}

DurableLedger::DurableLedger(DurabilityConfig config)
    : config_(std::move(config)), store_(config_.ledger_path) {
  // A snapshot "above" the log can exist if the log lost a tail the
  // snapshot outlived; it cannot seed appends, so it does not count as the
  // newest one.
  for (const std::uint64_t height : list_snapshots(config_)) {
    if (height <= store_.height()) {
      last_snapshot_height_ = height;
      break;
    }
  }
}

void DurableLedger::on_commit(const Ledger& ledger, const StateDb& state) {
  // Catch-up semantics: a restarted peer replaying the chain from genesis
  // re-commits blocks that are already durable. Skip them — the log holds
  // them, and re-appending would (rightly) fail the extends-the-tail check.
  if (ledger.last().block.header.number < store_.height()) return;
  store_.append(ledger.last());
  if (config_.fsync_each_block) store_.sync();

  if (config_.snapshot_interval == 0) return;
  const std::uint64_t height = store_.height();
  if (height % config_.snapshot_interval != 0) return;

  StateSnapshotMeta meta;
  meta.height = height;
  const auto& commit = ledger.last_commit_hash();
  meta.commit_hash.assign(commit.begin(), commit.end());
  const crypto::Digest header_hash = ledger.last().block.block_hash();
  meta.header_hash.assign(header_hash.begin(), header_hash.end());
  if (!state.snapshot(snapshot_path(config_, height), meta)) return;
  store_.sync();  // a snapshot must never outrun the log it replays from
  last_snapshot_height_ = height;
  snapshots_cut_ += 1;

  // Prune: keep the newest keep_snapshots files.
  const auto heights = list_snapshots(config_);
  for (std::size_t i = std::max<std::size_t>(config_.keep_snapshots, 1);
       i < heights.size(); ++i)
    std::filesystem::remove(snapshot_path(config_, heights[i]));
}

RecoveryResult DurableLedger::recover(const DurabilityConfig& config,
                                      Ledger& ledger, StateDb& state) {
  const auto started = std::chrono::steady_clock::now();
  RecoveryResult result;

  // Newest intact snapshot wins; corrupt or stale ones fall through to the
  // next, and with none left the whole log replays from genesis.
  for (const std::uint64_t height : list_snapshots(config)) {
    const auto meta = state.restore(snapshot_path(config, height));
    if (!meta || meta->height != height ||
        meta->commit_hash.size() != crypto::Digest{}.size())
      continue;
    auto chain = FileBlockStore::recover_from(config.ledger_path, height,
                                              digest_from(meta->commit_hash));
    if (chain.first_height != height) continue;  // log shorter than snapshot
    ledger = Ledger{};
    ledger.open_at(height, digest_from(meta->commit_hash),
                   digest_from(meta->header_hash));
    if (!replay_chain(chain, ledger, &state)) {
      ledger = Ledger{};
      continue;
    }
    result.ok = true;
    result.used_snapshot = true;
    result.snapshot_height = height;
    result.blocks_replayed = chain.blocks.size();
    result.torn_bytes = chain.torn_bytes;
    break;
  }

  if (!result.ok) {
    state.clear();
    ledger = Ledger{};
    auto chain = FileBlockStore::recover(config.ledger_path);
    result.torn_bytes = chain.torn_bytes;
    result.blocks_replayed = chain.blocks.size();
    result.ok = replay_chain(chain, ledger, &state);
    if (!result.ok) result.error = "full replay failed re-validation";
  }

  result.height = ledger.height();
  result.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

void DurableLedger::publish_metrics(obs::Registry& registry,
                                    const std::string& prefix) const {
  store_.publish_metrics(registry, prefix);
  registry
      .counter(prefix + "_snapshots_total",
               "state snapshots cut by this handle")
      .set(snapshots_cut_);
  registry
      .gauge(prefix + "_snapshot_age_blocks",
             "blocks committed since the newest snapshot")
      .set(static_cast<double>(snapshot_age_blocks()));
  registry
      .gauge(prefix + "_last_snapshot_height",
             "chain height of the newest snapshot")
      .set(static_cast<double>(last_snapshot_height_));
}

void DurableLedger::publish_recovery_metrics(obs::Registry& registry,
                                             const std::string& prefix,
                                             const RecoveryResult& result) {
  registry
      .gauge(prefix + "_recovery_duration_ms",
             "wall-clock time of the last recovery")
      .set(result.duration_s * 1e3);
  registry
      .gauge(prefix + "_recovery_blocks_replayed",
             "log records re-applied by the last recovery")
      .set(static_cast<double>(result.blocks_replayed));
  registry
      .gauge(prefix + "_recovery_used_snapshot",
             "1 when the last recovery restored a snapshot")
      .set(result.used_snapshot ? 1.0 : 0.0);
  registry
      .gauge(prefix + "_recovery_torn_bytes",
             "bytes the last recovery discarded at the log tail")
      .set(static_cast<double>(result.torn_bytes));
}

}  // namespace bm::fabric
