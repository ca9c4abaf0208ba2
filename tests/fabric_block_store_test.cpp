#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/crc32.hpp"
#include "fabric/block_store.hpp"
#include "fabric/validator.hpp"
#include "workload/network_harness.hpp"

namespace bm::fabric {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct StoreFixture : ::testing::Test {
  StoreFixture() {
    options.block_size = 4;
    options.seed = 31;
  }
  void TearDown() override { std::remove(path.c_str()); }

  /// Produce n committed blocks and persist them.
  void persist(int n) {
    workload::FabricNetworkHarness harness(options);
    SoftwareValidator validator(harness.msp(), harness.policies());
    FileBlockStore store(path);
    for (int i = 0; i < n; ++i) {
      const Block block = harness.next_block();
      validator.validate_and_commit(block, state, ledger);
      store.append(ledger.last());
    }
  }

  workload::NetworkOptions options;
  std::string path = temp_path("bm_block_store_test.log");
  StateDb state;
  Ledger ledger;
};

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
  // Incremental == one-shot.
  const Bytes data = to_bytes("hello block store");
  std::uint32_t crc = crc32(ByteView(data).subspan(0, 5));
  crc = crc32_update(crc, ByteView(data).subspan(5));
  EXPECT_EQ(crc, crc32(data));
}

TEST_F(StoreFixture, PersistAndRecover) {
  persist(5);
  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 5u);
  EXPECT_EQ(chain.torn_bytes, 0u);

  Ledger recovered;
  StateDb recovered_state;
  ASSERT_TRUE(replay_chain(chain, recovered, &recovered_state));
  EXPECT_EQ(recovered.height(), ledger.height());
  EXPECT_EQ(recovered.last().commit_hash, ledger.last().commit_hash);
  EXPECT_EQ(recovered_state.size(), state.size());
}

TEST_F(StoreFixture, RecoverMissingFileIsEmpty) {
  const auto chain = FileBlockStore::recover(temp_path("does_not_exist.log"));
  EXPECT_TRUE(chain.blocks.empty());
}

TEST_F(StoreFixture, TornTailIsDiscarded) {
  persist(3);
  // Simulate a crash mid-append: truncate the file inside the last record.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 17);

  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 2u);
  EXPECT_GT(chain.torn_bytes, 0u);

  Ledger recovered;
  EXPECT_TRUE(replay_chain(chain, recovered));
  EXPECT_EQ(recovered.height(), 2u);
}

TEST_F(StoreFixture, CorruptionDetectedByCrc) {
  persist(3);
  // Flip one byte in the middle of the second record's payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(std::filesystem::file_size(path) / 2),
               SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  const auto chain = FileBlockStore::recover(path);
  EXPECT_LT(chain.blocks.size(), 3u);  // corrupt record and successors dropped
  Ledger recovered;
  EXPECT_TRUE(replay_chain(chain, recovered));  // surviving prefix replays
}

TEST_F(StoreFixture, AppendAfterRecoveryContinuesChain) {
  persist(2);
  // Recover, then keep appending to the same file.
  auto chain = FileBlockStore::recover(path);
  ASSERT_EQ(chain.blocks.size(), 2u);

  workload::NetworkOptions more = options;
  more.seed = 32;
  // Rebuild the pipeline state from disk, then commit new blocks on top.
  Ledger recovered;
  StateDb recovered_state;
  ASSERT_TRUE(replay_chain(chain, recovered, &recovered_state));

  FileBlockStore store(path);
  workload::FabricNetworkHarness harness(options);
  SoftwareValidator validator(harness.msp(), harness.policies());
  // Regenerate the first two blocks (deterministic seed) to resync the
  // harness, then a third block goes through the recovered ledger.
  harness.next_block();
  harness.next_block();
  const Block third = harness.next_block();
  validator.validate_and_commit(third, recovered_state, recovered);
  store.append(recovered.last());

  const auto final_chain = FileBlockStore::recover(path);
  EXPECT_EQ(final_chain.blocks.size(), 3u);
  EXPECT_EQ(final_chain.blocks.back().commit_hash,
            recovered.last().commit_hash);
}

TEST_F(StoreFixture, ReplayRejectsTamperedChain) {
  persist(2);
  auto chain = FileBlockStore::recover(path);
  ASSERT_EQ(chain.blocks.size(), 2u);
  chain.blocks[1].commit_hash[0] ^= 1;
  Ledger recovered;
  EXPECT_FALSE(replay_chain(chain, recovered));
}

// --- malformed frames -------------------------------------------------------

constexpr std::uint32_t kTestMagic = 0x424D4C47;  // "BMLG", mirrors the store

void put_u32le(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Append one raw frame with caller-chosen header fields (no validation).
void append_raw_frame(const std::string& path, std::uint32_t magic,
                      std::uint32_t len, std::uint32_t crc,
                      const Bytes& payload) {
  Bytes frame;
  put_u32le(frame, magic);
  put_u32le(frame, len);
  put_u32le(frame, crc);
  bm::append(frame, payload);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
  std::fclose(f);
}

Bytes read_file(const std::string& path) {
  Bytes bytes(std::filesystem::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, ByteView bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST_F(StoreFixture, ReplayRejectsLoggedBlockWithShortFlags) {
  // A frame whose CRC and commit-hash chain are intact but whose block has
  // fewer flags than envelopes. Recovery returns it (the frame is what was
  // written); replay must refuse it instead of reading past its flags.
  persist(2);
  CommittedBlock crafted = ledger.at(1);
  ASSERT_GT(crafted.block.tx_count(), 1u);
  crafted.block.metadata.tx_flags.resize(1);
  const Bytes marshaled = crafted.block.marshal();
  crypto::Sha256 h;
  h.update(crypto::digest_view(ledger.at(0).commit_hash));
  h.update(marshaled);
  Bytes payload = crypto::digest_bytes(h.finish());
  bm::append(payload, marshaled);
  const Bytes log = read_file(path);
  write_file(path, ByteView(log).subspan(
                       0, FileBlockStore::recover(path).record_offsets[1]));
  append_raw_frame(path, kTestMagic, static_cast<std::uint32_t>(payload.size()),
                   crc32(payload), payload);

  const auto chain = FileBlockStore::recover(path);
  ASSERT_EQ(chain.blocks.size(), 2u);
  EXPECT_EQ(chain.blocks[1].block.metadata.tx_flags.size(), 1u);
  Ledger recovered;
  StateDb recovered_state;
  EXPECT_FALSE(replay_chain(chain, recovered, &recovered_state));
  EXPECT_EQ(recovered.height(), 1u);
}

TEST_F(StoreFixture, ZeroLengthFrameStopsTheScan) {
  persist(2);
  const auto before = std::filesystem::file_size(path);
  append_raw_frame(path, kTestMagic, 0, crc32(Bytes{}), Bytes{});

  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 2u);
  EXPECT_EQ(chain.torn_bytes, 12u);  // the whole malformed frame

  // Reopen cuts it off the file entirely.
  FileBlockStore store(path);
  EXPECT_EQ(store.height(), 2u);
  EXPECT_EQ(store.truncated_bytes(), 12u);
  EXPECT_EQ(std::filesystem::file_size(path), before);
}

TEST_F(StoreFixture, ShortLengthFrameRejectedEvenWithValidCrc) {
  persist(2);
  // A record shorter than a bare commit hash cannot be well-formed; the
  // length check must fire *before* the payload is viewed or CRC-checked,
  // so a valid CRC does not save it.
  const Bytes payload(16, 0xAB);
  append_raw_frame(path, kTestMagic, 16, crc32(payload), payload);

  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 2u);
  EXPECT_EQ(chain.torn_bytes, 12u + 16u);

  FileBlockStore store(path);
  EXPECT_EQ(store.height(), 2u);
  EXPECT_EQ(store.truncated_bytes(), 12u + 16u);
}

TEST_F(StoreFixture, OversizedLengthFrameStopsTheScan) {
  persist(2);
  append_raw_frame(path, kTestMagic, FileBlockStore::kMaxPayload + 1, 0,
                   Bytes{});
  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 2u);
  EXPECT_EQ(chain.torn_bytes, 12u);
}

TEST_F(StoreFixture, StrayMagicInsidePayloadDoesNotResync) {
  persist(3);
  const auto chain = FileBlockStore::recover(path);
  ASSERT_EQ(chain.blocks.size(), 3u);
  const Bytes pristine = read_file(path);

  // Rebuild the file as: records 0-1, then a CRC-valid frame whose payload
  // *embeds the complete valid frame of record 2* (stray magic and all)
  // behind 32 bytes of junk. The frame passes magic/len/CRC but fails the
  // chain-hash check; a scanner that resynced on the embedded magic would
  // resurrect record 2 out of thin air.
  const std::uint64_t record2_start = chain.record_offsets[2];
  const Bytes record2(pristine.begin() + static_cast<long>(record2_start),
                      pristine.end());
  write_file(path, ByteView(pristine).subspan(0, record2_start));
  Bytes payload(32, 0x00);
  bm::append(payload, record2);
  append_raw_frame(path, kTestMagic, static_cast<std::uint32_t>(payload.size()),
                   crc32(payload), payload);

  const auto rescanned = FileBlockStore::recover(path);
  EXPECT_EQ(rescanned.blocks.size(), 2u);
  EXPECT_EQ(rescanned.torn_bytes, 12u + payload.size());
}

// --- the reopen-after-crash regression --------------------------------------

// The headline bug: a store reopened over a torn tail used to append blindly
// past the tear, burying every new block where recover() (which stops at the
// first inconsistency) could never reach it. Truncate the log at *every*
// byte offset inside the last record, reopen, append — all pre-crash and
// post-reopen blocks must come back.
TEST_F(StoreFixture, ReopenAfterCrashAtEveryOffset) {
  options.block_size = 1;  // small records keep the byte sweep fast
  persist(3);
  const Bytes pristine = read_file(path);
  const auto chain = FileBlockStore::recover(path);
  ASSERT_EQ(chain.blocks.size(), 3u);
  const std::uint64_t last_start = chain.record_offsets[2];

  for (std::uint64_t cut = last_start + 1; cut < pristine.size(); ++cut) {
    write_file(path, ByteView(pristine).subspan(0, cut));

    FileBlockStore store(path);
    ASSERT_EQ(store.height(), 2u) << "cut=" << cut;
    ASSERT_EQ(store.truncated_bytes(), cut - last_start) << "cut=" << cut;
    ASSERT_EQ(store.tail_commit_hash(), ledger.at(1).commit_hash)
        << "cut=" << cut;
    ASSERT_EQ(std::filesystem::file_size(path), last_start) << "cut=" << cut;

    // Re-append the block the crash tore away (same chain position).
    store.append(ledger.at(2));
    ASSERT_EQ(store.blocks_written(), 1u) << "cut=" << cut;

    const auto recovered = FileBlockStore::recover(path);
    ASSERT_EQ(recovered.blocks.size(), 3u) << "cut=" << cut;
    ASSERT_EQ(recovered.blocks.back().commit_hash, ledger.at(2).commit_hash)
        << "cut=" << cut;
    ASSERT_EQ(recovered.torn_bytes, 0u) << "cut=" << cut;
  }
}

TEST_F(StoreFixture, ReopenedStoreRejectsNonExtendingAppend) {
  persist(2);
  FileBlockStore store(path);
  EXPECT_EQ(store.height(), 2u);
  EXPECT_EQ(store.tail_commit_hash(), ledger.at(1).commit_hash);

  // Wrong chain position: block 1 at height 2.
  EXPECT_THROW(store.append(ledger.at(1)), std::invalid_argument);

  // Right number, wrong hash: does not extend the recovered tail.
  CommittedBlock forged = ledger.at(1);
  forged.block.header.number = 2;
  EXPECT_THROW(store.append(forged), std::invalid_argument);

  // Nothing was written by the rejected appends.
  EXPECT_EQ(store.blocks_written(), 0u);
  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 2u);
}

/// The next block for `ledger`: one envelope of `envelope_bytes` bytes.
Block filler_block(const Ledger& ledger, std::size_t envelope_bytes) {
  Block block;
  block.header.number = ledger.height();
  if (ledger.height() > 0)
    block.header.prev_hash =
        crypto::digest_bytes(ledger.last().block.block_hash());
  block.envelopes.push_back(Bytes(envelope_bytes, 0x5A));
  block.header.data_hash = crypto::digest_bytes(block.compute_data_hash());
  block.set_tx_flags({TxValidationCode::kValid});
  return block;
}

TEST(BlockStore, OversizeRecordRejectedBeforeWrite) {
  // Recovery stops at a record over kMaxPayload, so writing one would
  // silently orphan it and every later append.
  const std::string path = temp_path("bm_block_store_oversize.log");
  std::remove(path.c_str());
  FileBlockStore store(path);
  Ledger ledger;
  ledger.append(filler_block(ledger, 100));
  store.append(ledger.last());
  const auto size_before = std::filesystem::file_size(path);

  Ledger oversize = ledger;
  oversize.append(filler_block(oversize, FileBlockStore::kMaxPayload));
  EXPECT_THROW(store.append(oversize.last()), std::invalid_argument);
  EXPECT_EQ(store.height(), 1u);
  EXPECT_EQ(std::filesystem::file_size(path), size_before);

  // The next normal block still chains, and recovery returns both.
  ledger.append(filler_block(ledger, 100));
  store.append(ledger.last());
  EXPECT_EQ(store.height(), 2u);
  const auto chain = FileBlockStore::recover(path);
  EXPECT_EQ(chain.blocks.size(), 2u);
  EXPECT_EQ(chain.torn_bytes, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bm::fabric
