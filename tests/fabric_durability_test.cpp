// The durable-ledger subsystem end to end (docs/DURABILITY.md): StateDb
// snapshot files, snapshot + replay-from-height recovery, and the
// kill-and-restart crash drill.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fabric/durability.hpp"
#include "obs/metrics.hpp"
#include "workload/chaos.hpp"
#include "workload/network_harness.hpp"

namespace bm::fabric {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct DurabilityFixture : ::testing::Test {
  DurabilityFixture() {
    config.ledger_path = temp_path("bm_durability_test.log");
    options.block_size = 3;
    options.seed = 59;
  }
  void SetUp() override { DurableLedger::remove_files(config); }
  void TearDown() override { DurableLedger::remove_files(config); }

  /// Commit n blocks through a durability-enabled harness, then drop it.
  /// Returns the reference tail commit hash.
  crypto::Digest commit_durably(int n) {
    workload::NetworkOptions net = options;
    net.durability = config;
    workload::FabricNetworkHarness harness(net);
    for (int i = 0; i < n; ++i) harness.next_block();
    harness.durable()->sync();
    return harness.reference_ledger().last_commit_hash();
  }

  DurabilityConfig config;
  workload::NetworkOptions options;
};

// --- StateDb snapshot files -------------------------------------------------

TEST(StateSnapshot, RoundTrip) {
  const std::string path = temp_path("bm_state_snapshot_test.snap");
  StateDb original(4);
  original.put(StateDb::namespaced("cc", "alpha"), to_bytes("1"), {3, 0});
  original.put(StateDb::namespaced("cc", "beta"), to_bytes("two"), {3, 1});
  original.put(StateDb::namespaced("dd", "gamma"), to_bytes(""), {7, 2});

  StateSnapshotMeta meta;
  meta.height = 8;
  meta.commit_hash = Bytes(32, 0xAA);
  meta.header_hash = Bytes(32, 0xBB);
  ASSERT_TRUE(original.snapshot(path, meta));

  // A different shard count must not matter: entries re-route by hash.
  StateDb restored(2);
  const auto got = restored.restore(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->height, 8u);
  EXPECT_EQ(got->commit_hash, meta.commit_hash);
  EXPECT_EQ(got->header_hash, meta.header_hash);
  EXPECT_EQ(restored.size(), original.size());
  const auto beta = restored.get(StateDb::namespaced("cc", "beta"));
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(beta->value, to_bytes("two"));
  EXPECT_EQ(beta->version, (Version{3, 1}));
  std::remove(path.c_str());
}

TEST(StateSnapshot, CorruptionAndTruncationRejected) {
  const std::string path = temp_path("bm_state_snapshot_test.snap");
  StateDb original(4);
  for (int i = 0; i < 32; ++i)
    original.put("key" + std::to_string(i), to_bytes(std::to_string(i)),
                 {static_cast<std::uint64_t>(i), 0});
  ASSERT_TRUE(original.snapshot(path, StateSnapshotMeta{5, Bytes(32, 1),
                                                        Bytes(32, 2)}));
  const auto full_size = std::filesystem::file_size(path);

  // Flip a byte in the middle: CRC framing must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, static_cast<long>(full_size / 2), SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }
  StateDb victim(4);
  victim.put("stale", to_bytes("x"), {1, 0});
  EXPECT_FALSE(victim.restore(path).has_value());
  EXPECT_EQ(victim.size(), 0u);  // cleared, never half-restored

  // Torn mid-write (no atomic-rename protection in this simulation of it).
  ASSERT_TRUE(original.snapshot(path, StateSnapshotMeta{5, Bytes(32, 1),
                                                        Bytes(32, 2)}));
  std::filesystem::resize_file(path, full_size - 7);
  EXPECT_FALSE(victim.restore(path).has_value());

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(victim.restore(path).has_value());
}

// --- DurableLedger file layout ---------------------------------------------

TEST_F(DurabilityFixture, RemoveFilesDeletesTheLogAndItsSnapshotsOnly) {
  config.snapshot_interval = 2;
  commit_durably(4);  // the log plus snapshots at heights 2 and 4
  ASSERT_TRUE(std::filesystem::exists(config.ledger_path));
  ASSERT_TRUE(std::filesystem::exists(DurableLedger::snapshot_path(config, 2)));
  ASSERT_TRUE(std::filesystem::exists(DurableLedger::snapshot_path(config, 4)));
  // Shares the log's name up to "snap" but is not a "<log>.snap.*" file.
  const std::string unrelated = temp_path("bm_durability_test.log.snapshot");
  std::ofstream(unrelated) << "keep";

  DurableLedger::remove_files(config);
  EXPECT_FALSE(std::filesystem::exists(config.ledger_path));
  EXPECT_FALSE(std::filesystem::exists(DurableLedger::snapshot_path(config, 2)));
  EXPECT_FALSE(std::filesystem::exists(DurableLedger::snapshot_path(config, 4)));
  EXPECT_TRUE(std::filesystem::exists(unrelated));

  // Nothing left to remove: a second call is a no-op, not an error.
  DurableLedger::remove_files(config);
  EXPECT_TRUE(std::filesystem::exists(unrelated));
  std::filesystem::remove(unrelated);
}

// --- DurableLedger recovery -------------------------------------------------

TEST_F(DurabilityFixture, RecoverWithoutSnapshotsReplaysFromGenesis) {
  const crypto::Digest want = commit_durably(5);

  Ledger ledger;
  StateDb state;
  const RecoveryResult result = DurableLedger::recover(config, ledger, state);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.used_snapshot);
  EXPECT_EQ(result.blocks_replayed, 5u);
  EXPECT_EQ(ledger.height(), 5u);
  EXPECT_EQ(ledger.last_commit_hash(), want);
  EXPECT_GT(state.size(), 0u);
}

TEST_F(DurabilityFixture, RecoverUsesNewestSnapshotAndReplaysTheRest) {
  config.snapshot_interval = 2;
  config.keep_snapshots = 2;
  const crypto::Digest want = commit_durably(7);

  // Snapshots were cut at heights 2, 4 and 6; pruning keeps {4, 6}.
  EXPECT_FALSE(std::filesystem::exists(DurableLedger::snapshot_path(config, 2)));
  EXPECT_TRUE(std::filesystem::exists(DurableLedger::snapshot_path(config, 4)));
  EXPECT_TRUE(std::filesystem::exists(DurableLedger::snapshot_path(config, 6)));

  Ledger ledger;
  StateDb state;
  const RecoveryResult result = DurableLedger::recover(config, ledger, state);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.used_snapshot);
  EXPECT_EQ(result.snapshot_height, 6u);
  EXPECT_EQ(result.blocks_replayed, 1u);  // only block 6 replays
  EXPECT_EQ(ledger.height(), 7u);
  EXPECT_EQ(ledger.base_height(), 6u);
  EXPECT_EQ(ledger.last_commit_hash(), want);

  // The snapshot-seeded state must agree with a full genesis replay.
  Ledger full_ledger;
  StateDb full_state;
  ASSERT_TRUE(replay_chain(FileBlockStore::recover(config.ledger_path),
                           full_ledger, &full_state));
  EXPECT_EQ(state.size(), full_state.size());
}

TEST_F(DurabilityFixture, CorruptNewestSnapshotFallsBackToOlder) {
  config.snapshot_interval = 2;
  config.keep_snapshots = 3;
  const crypto::Digest want = commit_durably(7);

  // Poison the newest snapshot (height 6); recovery must fall back to 4.
  {
    const std::string newest = DurableLedger::snapshot_path(config, 6);
    std::FILE* f = std::fopen(newest.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }

  Ledger ledger;
  StateDb state;
  const RecoveryResult result = DurableLedger::recover(config, ledger, state);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.used_snapshot);
  EXPECT_EQ(result.snapshot_height, 4u);
  EXPECT_EQ(result.blocks_replayed, 3u);
  EXPECT_EQ(ledger.height(), 7u);
  EXPECT_EQ(ledger.last_commit_hash(), want);
}

TEST_F(DurabilityFixture, SnapshotAboveTornLogIsIgnored) {
  config.snapshot_interval = 3;
  commit_durably(6);  // snapshots at 3 and 6

  // Tear the last record: the log now ends at height 5, below snapshot 6.
  const auto chain = FileBlockStore::recover(config.ledger_path);
  ASSERT_EQ(chain.blocks.size(), 6u);
  std::filesystem::resize_file(config.ledger_path,
                               chain.record_offsets[5] + 13);

  Ledger ledger;
  StateDb state;
  const RecoveryResult result = DurableLedger::recover(config, ledger, state);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.used_snapshot);
  EXPECT_EQ(result.snapshot_height, 3u);  // 6 cannot seed a 5-block log
  EXPECT_EQ(ledger.height(), 5u);
  EXPECT_GT(result.torn_bytes, 0u);

  // A reopened DurableLedger agrees: height 5, snapshot age counted from 3.
  DurableLedger durable(config);
  EXPECT_EQ(durable.store().height(), 5u);
  EXPECT_EQ(durable.last_snapshot_height(), 3u);
  EXPECT_EQ(durable.snapshot_age_blocks(), 2u);
}

// --- the kill-and-restart drill ---------------------------------------------

TEST_F(DurabilityFixture, CrashRecoveryScenarioPasses) {
  workload::CrashRecoveryOptions crash;
  crash.network = options;
  crash.durability = config;
  crash.durability.snapshot_interval = 3;
  crash.blocks_before_crash = 8;
  crash.blocks_after = 4;

  obs::Registry registry;
  const workload::CrashRecoveryReport report =
      workload::run_crash_recovery(crash, &registry);
  EXPECT_TRUE(report.ok()) << report.mismatch << "\n" << report.to_text();
  EXPECT_TRUE(report.crashed_mid_record);
  EXPECT_GT(report.recovery.torn_bytes, 0u);
  EXPECT_EQ(report.recovered_height, 7u);
  EXPECT_EQ(report.final_height, 12u);

  // Deterministic: the whole drill reproduces byte for byte.
  const workload::CrashRecoveryReport again =
      workload::run_crash_recovery(crash);
  EXPECT_EQ(report.to_text(), again.to_text());
}

TEST_F(DurabilityFixture, CrashRecoveryWithoutSnapshotsStillPasses) {
  workload::CrashRecoveryOptions crash;
  crash.network = options;
  crash.durability = config;  // snapshot_interval = 0: full replay only
  crash.blocks_before_crash = 5;
  crash.blocks_after = 3;

  const workload::CrashRecoveryReport report =
      workload::run_crash_recovery(crash);
  EXPECT_TRUE(report.ok()) << report.mismatch << "\n" << report.to_text();
  EXPECT_FALSE(report.recovery.used_snapshot);
}

// --- wiring: harness-level durability ---------------------------------------

TEST_F(DurabilityFixture, HarnessPersistsExactlyTheCommittedChain) {
  workload::NetworkOptions net = options;
  net.durability = config;
  net.durability.snapshot_interval = 4;
  net.durability.fsync_each_block = true;

  crypto::Digest want;
  {
    workload::FabricNetworkHarness harness(net);
    for (int i = 0; i < 6; ++i) harness.next_block();
    want = harness.reference_ledger().last_commit_hash();

    ASSERT_NE(harness.durable(), nullptr);
    EXPECT_EQ(harness.durable()->store().height(), 6u);
    EXPECT_GE(harness.durable()->store().fsyncs(), 6u);
    EXPECT_EQ(harness.durable()->snapshots_cut(), 1u);
    EXPECT_EQ(harness.durable()->snapshot_age_blocks(), 2u);

    obs::Registry registry;
    harness.durable()->publish_metrics(registry, "durable");
    EXPECT_EQ(registry.gauge("durable_height", "").value(), 6.0);
    EXPECT_EQ(registry.gauge("durable_last_snapshot_height", "").value(), 4.0);
  }

  Ledger ledger;
  StateDb state;
  const RecoveryResult result = DurableLedger::recover(config, ledger, state);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(ledger.height(), 6u);
  EXPECT_EQ(ledger.last_commit_hash(), want);
}

}  // namespace
}  // namespace bm::fabric
