// Graceful degradation end to end: the GBN sender's backoff/cap machinery,
// the BMac peer's watchdog + software fallback, and the chaos soak — under
// every shipped fault config the peer must commit the exact block hashes of
// the fault-free software baseline (the §4.1 equivalence invariant extended
// to degraded networks; see docs/FAULTS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "bmac/peer.hpp"
#include "bmac/reliable.hpp"
#include "common/hex.hpp"
#include "crypto/comb_cache.hpp"
#include "serve/scenario.hpp"
#include "workload/chaos.hpp"

namespace bm::bmac {
namespace {

using workload::ChaosOptions;
using workload::ChaosReport;
using workload::FabricNetworkHarness;
using workload::NetworkOptions;

// --- GBN: exponential-backoff RTO -------------------------------------------

TEST(GbnBackoff, RtoDoublesUpToCapWhileStalled) {
  sim::Simulation sim;
  GbnSender::Config config;
  config.retransmit_timeout = 1 * sim::kMillisecond;
  config.rto_backoff = 2.0;
  config.rto_max = 8 * sim::kMillisecond;
  std::vector<sim::Time> transmissions;
  GbnSender sender(sim, config,
                   [&](const SequencedFrame&) { transmissions.push_back(sim.now()); });
  sender.send(Bytes{1, 2, 3});  // every transmission is blackholed
  sim.run_until(40 * sim::kMillisecond);

  // t=0, then timeouts after 1, 2, 4, 8, 8, 8... ms of waiting.
  ASSERT_GE(transmissions.size(), 7u);
  EXPECT_EQ(transmissions[0], 0);
  EXPECT_EQ(transmissions[1] - transmissions[0], 1 * sim::kMillisecond);
  EXPECT_EQ(transmissions[2] - transmissions[1], 2 * sim::kMillisecond);
  EXPECT_EQ(transmissions[3] - transmissions[2], 4 * sim::kMillisecond);
  EXPECT_EQ(transmissions[4] - transmissions[3], 8 * sim::kMillisecond);
  EXPECT_EQ(transmissions[5] - transmissions[4], 8 * sim::kMillisecond);
  EXPECT_EQ(sender.current_rto(), 8 * sim::kMillisecond);  // pinned at rto_max
}

TEST(GbnBackoff, WindowProgressResetsRto) {
  sim::Simulation sim;
  GbnSender::Config config;
  config.retransmit_timeout = 1 * sim::kMillisecond;
  config.rto_backoff = 2.0;
  config.rto_max = 64 * sim::kMillisecond;
  GbnSender sender(sim, config, [](const SequencedFrame&) {});
  sender.send(Bytes{1});
  sim.run_until(8 * sim::kMillisecond);  // timeouts at 1, 3, 7 ms
  EXPECT_GT(sender.current_rto(), config.retransmit_timeout);
  sender.on_ack(1);  // the frame finally got through
  EXPECT_EQ(sender.current_rto(), config.retransmit_timeout);
  EXPECT_TRUE(sender.idle());
}

// --- GBN: retransmission cap + stream resync --------------------------------

TEST(GbnCap, ExhaustionFiresFailureAndResyncsStream) {
  sim::Simulation sim;
  GbnSender::Config config;
  config.retransmit_timeout = 1 * sim::kMillisecond;
  config.rto_backoff = 1.0;  // fixed RTO: timeouts at 1, 2, 3, 4 ms
  config.retransmit_cap = 3;

  bool blackhole = true;
  std::vector<Bytes> delivered;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> failures;
  std::unique_ptr<GbnSender> sender;
  GbnReceiver receiver([&](Bytes payload) { delivered.push_back(std::move(payload)); },
                       [&](std::uint64_t next) { sender->on_ack(next); });
  sender = std::make_unique<GbnSender>(
      sim, config, [&](const SequencedFrame& frame) {
        if (!blackhole) receiver.on_frame(frame);
      });
  sender->set_failure_callback([&](std::uint64_t first, std::uint64_t last) {
    failures.emplace_back(first, last);
    blackhole = false;  // the path heals right as the sender gives up
  });

  sender->send(Bytes{10});
  sender->send(Bytes{20});
  sim.run_until(10 * sim::kMillisecond);

  // Frames 0-1 were abandoned after 3 fruitless timeouts; the SYNC frame
  // (seq 2) fast-forwarded the receiver past the gap.
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].first, 0u);
  EXPECT_EQ(failures[0].second, 1u);
  EXPECT_EQ(sender->stats().frames_abandoned, 2u);
  EXPECT_EQ(sender->stats().stream_resyncs, 1u);
  EXPECT_EQ(receiver.stats().stream_resyncs, 1u);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(receiver.next_expected(), 3u);
  EXPECT_TRUE(sender->idle());  // SYNC was ACKed

  // The stream keeps working for later traffic.
  sender->send(Bytes{30});
  sim.run_until(sim.now() + 5 * sim::kMillisecond);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], Bytes{30});
}

TEST(GbnCap, ZeroCapRetriesForever) {
  sim::Simulation sim;
  GbnSender::Config config;
  config.retransmit_timeout = 1 * sim::kMillisecond;
  config.rto_backoff = 1.0;
  config.retransmit_cap = 0;
  int transmissions = 0;
  GbnSender sender(sim, config,
                   [&](const SequencedFrame&) { ++transmissions; });
  bool failed = false;
  sender.set_failure_callback(
      [&](std::uint64_t, std::uint64_t) { failed = true; });
  sender.send(Bytes{1});
  sim.run_until(50 * sim::kMillisecond);
  EXPECT_FALSE(failed);
  EXPECT_GT(transmissions, 40);
  EXPECT_EQ(sender.stats().stream_resyncs, 0u);
}

// --- GBN: wire framing CRC ---------------------------------------------------

TEST(GbnWire, CorruptedFramesAndAcksAreRejected) {
  SequencedFrame frame;
  frame.seq = 7;
  frame.payload = Bytes{1, 2, 3, 4};
  Bytes wire = frame.encode();
  ASSERT_EQ(wire.size(), frame.wire_size());
  const auto ok = SequencedFrame::decode(wire);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->seq, 7u);
  EXPECT_EQ(ok->payload, frame.payload);

  int delivered = 0, acked = 0;
  GbnReceiver receiver([&](Bytes) { ++delivered; },
                       [&](std::uint64_t) { ++acked; });
  // Flip one byte anywhere: the frame must be dropped without an ACK (a
  // corrupted sequence number could otherwise poison the cumulative ACK).
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes bad = wire;
    bad[i] ^= 0x40;
    receiver.on_wire(bad);
  }
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(acked, 0);
  EXPECT_EQ(receiver.stats().frames_corrupted, wire.size());
  receiver.on_wire(Bytes{1, 2});  // truncated
  EXPECT_EQ(receiver.stats().frames_corrupted, wire.size() + 1);

  const Bytes ack = encode_ack(42);
  ASSERT_EQ(ack.size(), kGbnAckWireSize);
  EXPECT_EQ(decode_ack(ack), 42u);
  for (std::size_t i = 0; i < ack.size(); ++i) {
    Bytes bad = ack;
    bad[i] ^= 0x01;
    EXPECT_FALSE(decode_ack(bad).has_value()) << i;
  }
}

// --- peer watchdog + software fallback ---------------------------------------

struct DegradeRun {
  explicit DegradeRun(DegradeConfig degrade) {
    NetworkOptions options;
    options.block_size = 5;
    options.seed = 77;
    harness = std::make_unique<FabricNetworkHarness>(options);
    peer = std::make_unique<BmacPeer>(sim, harness->msp(), HwConfig{},
                                      harness->policies());
    peer->enable_graceful_degradation(degrade);
    peer->start();
    sender = std::make_unique<ProtocolSender>(harness->msp());
  }

  std::unique_ptr<FabricNetworkHarness> harness;
  sim::Simulation sim;
  std::unique_ptr<BmacPeer> peer;
  std::unique_ptr<ProtocolSender> sender;
};

TEST(Degrade, StalledStreamFallsBackAndHashesMatchReference) {
  // Blocks 0 and 2 arrive intact. Block 1 loses every packet, or only its
  // metadata section, so its other records are staged and then discarded.
  // The watchdog must recover block 1 in software and block 2 — held by the
  // ordered release gate — must then flow through the hardware normally.
  for (const bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "metadata lost" : "every packet lost");
    DegradeConfig degrade;
    degrade.result_budget = 50 * sim::kMillisecond;
    DegradeRun run(degrade);

    // The harness reference-validates each block it makes, so all three
    // exist before the lookups are counted.
    std::vector<fabric::Block> blocks;
    for (int i = 0; i < 3; ++i) blocks.push_back(run.harness->next_block());
    const auto& cache = crypto::CombCache::shared();
    const auto before = cache.counters();
    for (int i = 0; i < 3; ++i) {
      std::vector<BmacPacket> packets = run.sender->send(blocks[i]).packets;
      if (i == 1) packets.resize(staged ? packets.size() - 1 : 0);
      for (auto& packet : packets) run.peer->deliver_packet(std::move(packet));
      run.peer->deliver_block(blocks[i]);
    }
    run.sim.run();

    const auto& results = run.peer->results();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].fallback);
    EXPECT_TRUE(results[1].fallback);
    EXPECT_FALSE(results[2].fallback);
    EXPECT_EQ(run.peer->degrade_metrics().fallback_blocks, 1u);
    EXPECT_GE(run.peer->degrade_metrics().watchdog_fires, 1u);
    EXPECT_EQ(run.peer->degrade_metrics().streams_aborted, staged ? 1u : 0u);

    // Real verifications: what the engines executed for blocks 0 and 2,
    // and the fallback's block signature, creators and two endorsements
    // per transaction of this clean 2-of-2 chain; none for the discarded
    // records.
    const auto after = cache.counters();
    EXPECT_EQ(after.first_sights + after.builds + after.hits -
                  (before.first_sights + before.builds + before.hits),
              run.peer->processor().monitor().ecdsa_executed + 1 +
                  3 * blocks[1].tx_count());

    // Commit order, flags and the hash chain are byte-identical to the
    // fault-free software reference.
    const fabric::Ledger& reference = run.harness->reference_ledger();
    ASSERT_EQ(run.peer->ledger().height(), 3u);
    ASSERT_EQ(reference.height(), 3u);
    for (std::uint64_t h = 0; h < 3; ++h) {
      EXPECT_EQ(run.peer->ledger().at(h).commit_hash,
                reference.at(h).commit_hash)
          << h;
      EXPECT_EQ(results[h].flags, run.harness->reference_result(h).flags)
          << h;
    }
  }
}

TEST(Degrade, HealthyStreamsNeverFallBackEvenWithTinyBudget) {
  DegradeConfig degrade;
  degrade.result_budget = 10 * sim::kMicrosecond;  // far below hw latency
  DegradeRun run(degrade);
  for (int i = 0; i < 3; ++i) {
    fabric::Block block = run.harness->next_block();
    for (auto& packet : run.sender->send(block).packets)
      run.peer->deliver_packet(std::move(packet));
    run.peer->deliver_block(std::move(block));
  }
  run.sim.run();
  ASSERT_EQ(run.peer->results().size(), 3u);
  // The watchdog fired early, saw complete streams, and deferred — the
  // fallback must only trigger on genuinely stalled streams.
  EXPECT_EQ(run.peer->degrade_metrics().fallback_blocks, 0u);
  EXPECT_GT(run.peer->degrade_metrics().watchdog_deferrals, 0u);
  for (std::uint64_t h = 0; h < 3; ++h)
    EXPECT_EQ(run.peer->ledger().at(h).commit_hash,
              run.harness->reference_ledger().at(h).commit_hash);
}

TEST(Degrade, DegradedModeMatchesHealthyModeOnCleanInput) {
  // With no faults, the degraded peer (assembly gating, sequencer) commits
  // exactly what the classic peer commits.
  NetworkOptions options;
  options.block_size = 6;
  options.seed = 123;
  options.bad_signature_rate = 0.1;
  options.missing_endorsement_rate = 0.1;

  auto run_peer = [&](bool degraded) {
    FabricNetworkHarness harness(options);
    sim::Simulation sim;
    BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
    if (degraded) peer.enable_graceful_degradation();
    peer.start();
    ProtocolSender sender(harness.msp());
    for (int i = 0; i < 4; ++i) {
      fabric::Block block = harness.next_block();
      for (auto& packet : sender.send(block).packets)
        peer.deliver_packet(std::move(packet));
      peer.deliver_block(std::move(block));
      sim.run();
    }
    std::vector<crypto::Digest> hashes;
    for (std::uint64_t h = 0; h < peer.ledger().height(); ++h)
      hashes.push_back(peer.ledger().at(h).commit_hash);
    return hashes;
  };
  const auto healthy = run_peer(false);
  const auto degraded = run_peer(true);
  ASSERT_EQ(healthy.size(), 4u);
  EXPECT_EQ(healthy, degraded);
}

// --- verdict coverage --------------------------------------------------------

TEST(VerdictCoverage, MismatchedHostBlockIsRejectedAndCounted) {
  // The hardware validates a 4-tx block's packets while the host holds a
  // 2-tx block of the same number. The verdicts cannot be merged into it:
  // healthy and degraded peers alike refuse the block, count it and keep
  // running, in every build type.
  for (const bool degraded : {false, true}) {
    SCOPED_TRACE(degraded ? "degraded" : "healthy");
    NetworkOptions options;
    options.block_size = 4;
    options.seed = 91;
    FabricNetworkHarness harness(options);
    sim::Simulation sim;
    obs::Registry registry;
    BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
    peer.attach_observability(&registry, nullptr);
    if (degraded) peer.enable_graceful_degradation();
    peer.start();
    ProtocolSender sender(harness.msp());

    const fabric::Block block = harness.next_block();
    for (auto& packet : sender.send(block).packets)
      peer.deliver_packet(std::move(packet));
    fabric::Block host = block;
    host.envelopes.resize(2);
    peer.deliver_block(std::move(host));
    sim.run();

    ASSERT_EQ(peer.results().size(), 1u);
    EXPECT_FALSE(peer.results()[0].block_valid);
    EXPECT_EQ(peer.ledger().height(), 0u);
    EXPECT_EQ(peer.host_metrics().verdict_mismatches, 1u);
    EXPECT_EQ(peer.host_metrics().blocks_rejected, 1u);
    EXPECT_EQ(peer.host_metrics().blocks_committed, 0u);
    peer.publish_metrics();
    const auto* counter =
        registry.find_counter("bmac_host_verdict_mismatches_total");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value(), 1u);
  }
}

// --- rx queue overflow ---------------------------------------------------------

TEST(RxQueue, OverflowIsDroppedAndCountedInEveryBuild) {
  // The rx queue holds 65,536 packets and an unstarted peer consumes none,
  // so the 65,537th copy finds it full. The peer drops it and counts the
  // drop in every build type; the series appears once a drop happened.
  NetworkOptions options;
  options.block_size = 1;
  options.seed = 13;
  FabricNetworkHarness harness(options);
  sim::Simulation sim;
  obs::Registry registry;
  BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
  peer.attach_observability(&registry, nullptr);
  ProtocolSender sender(harness.msp());
  const auto packets = sender.send(harness.next_block()).packets;
  const BmacPacket& smallest = *std::min_element(
      packets.begin(), packets.end(), [](const auto& a, const auto& b) {
        return a.wire_size() < b.wire_size();
      });

  for (int i = 0; i < 65536; ++i) peer.deliver_packet(smallest);
  peer.publish_metrics();
  EXPECT_EQ(peer.host_metrics().rx_queue_dropped, 0u);
  EXPECT_EQ(registry.find_counter("bmac_rx_queue_dropped_total"), nullptr);

  peer.deliver_packet(smallest);
  peer.publish_metrics();
  EXPECT_EQ(peer.host_metrics().rx_queue_dropped, 1u);
  const auto* counter = registry.find_counter("bmac_rx_queue_dropped_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 1u);
}

// --- commit sequence ---------------------------------------------------------

TEST(CommitSequence, BlockAfterARejectedBlockIsRejectedAndCounted) {
  // Block 0 carries a bad orderer signature, so the host appends nothing;
  // block 1 is good but no longer extends the ledger. Each commit path
  // refuses it before touching any state, counts it and keeps running: the
  // healthy loop, the degraded loop on a hardware verdict, and the degraded
  // loop's software fallback (block 1's packets are all lost).
  enum class Mode { kHealthy, kDegraded, kFallback };
  for (const Mode mode : {Mode::kHealthy, Mode::kDegraded, Mode::kFallback}) {
    SCOPED_TRACE(static_cast<int>(mode));
    NetworkOptions options;
    options.block_size = 4;
    options.seed = 57;
    FabricNetworkHarness harness(options);
    sim::Simulation sim;
    obs::Registry registry;
    BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
    peer.attach_observability(&registry, nullptr);
    if (mode != Mode::kHealthy) {
      DegradeConfig degrade;
      degrade.result_budget = 50 * sim::kMillisecond;
      peer.enable_graceful_degradation(degrade);
    }
    peer.start();
    ProtocolSender sender(harness.msp());

    for (int i = 0; i < 2; ++i) {
      fabric::Block block = harness.next_block();
      if (i == 0) block.metadata.orderer_sig.back() ^= 0x01;
      if (i == 0 || mode != Mode::kFallback)
        for (auto& packet : sender.send(block).packets)
          peer.deliver_packet(std::move(packet));
      peer.deliver_block(std::move(block));
    }
    sim.run();

    ASSERT_EQ(peer.results().size(), 2u);
    EXPECT_FALSE(peer.results()[0].block_valid);
    EXPECT_FALSE(peer.results()[1].block_valid);
    EXPECT_EQ(peer.results()[1].fallback, mode == Mode::kFallback);
    EXPECT_EQ(peer.ledger().height(), 0u);
    EXPECT_EQ(peer.host_metrics().out_of_sequence_blocks, 1u);
    EXPECT_EQ(peer.host_metrics().blocks_rejected, 2u);
    EXPECT_EQ(peer.host_metrics().blocks_committed, 0u);
    peer.publish_metrics();
    const auto* counter =
        registry.find_counter("bmac_host_out_of_sequence_total");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value(), 1u);
  }
}

TEST(CommitSequence, DuplicateVerdictForACommittedBlockIsDropped) {
  // A healthy peer receives one 4-tx block's packets twice, so the hardware
  // validates it twice, but the host block arrives once. The first verdict
  // commits it; the second names a block already in the ledger and is
  // dropped and counted instead of being waited on forever. The run is
  // bounded, so a peer that still waits fails here rather than hanging.
  NetworkOptions options;
  options.block_size = 4;
  options.seed = 63;
  FabricNetworkHarness harness(options);
  sim::Simulation sim;
  obs::Registry registry;
  BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
  peer.attach_observability(&registry, nullptr);
  peer.start();
  ProtocolSender sender(harness.msp());

  const fabric::Block block = harness.next_block();
  peer.publish_metrics();
  EXPECT_EQ(registry.find_counter("bmac_host_duplicate_verdicts_total"),
            nullptr);
  for (int copy = 0; copy < 2; ++copy)
    for (auto& packet : sender.send(block).packets)
      peer.deliver_packet(std::move(packet));
  peer.deliver_block(block);
  sim.run_until(1 * sim::kSecond);

  EXPECT_FALSE(sim.step()) << "the run has not drained";
  EXPECT_EQ(peer.ledger().height(), 1u);
  ASSERT_EQ(peer.results().size(), 1u);
  EXPECT_TRUE(peer.results()[0].block_valid);
  EXPECT_EQ(peer.host_metrics().duplicate_verdicts, 1u);
  peer.publish_metrics();
  const auto* counter =
      registry.find_counter("bmac_host_duplicate_verdicts_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 1u);
}

// --- simulated timing ----------------------------------------------------------

// The peer's simulated timing, pinned. One seeded chain of twenty 5-tx blocks
// with the --faults mix (rogue creators, missing endorsements, stale reads)
// runs three ways:
//   - through a healthy peer, one block per sim.run();
//   - through a healthy peer with every block delivered before one
//     sim.run(): the host commits slower than the hardware validates, so
//     from block 16 on reg_map back-pressure paces validate_start;
//   - through a degraded peer fed directly (no GBN, no faults), whose
//     reg_map drain reads ahead of its commits.
// A change to when any stage runs moves the clock, the event count or a
// block's times.
using BlockTimes = std::array<sim::Time, 3>;  // received, validate start/end

struct TimingRun {
  sim::Time finished_at = 0;
  std::uint64_t events = 0;
  std::vector<BlockTimes> blocks;  ///< per result, in commit order
  std::string tail_hash;
};

enum class Feed { kOneBlockPerRun, kAllBeforeRun };

TimingRun run_timing_chain(bool degraded, Feed feed) {
  NetworkOptions options;
  options.block_size = 5;
  options.seed = 2024;
  options.bad_signature_rate = 0.1;
  options.missing_endorsement_rate = 0.1;
  options.conflicting_read_rate = 0.15;
  FabricNetworkHarness harness(options);
  sim::Simulation sim;
  BmacPeer peer(sim, harness.msp(), HwConfig{}, harness.policies());
  if (degraded) peer.enable_graceful_degradation();
  peer.start();
  ProtocolSender sender(harness.msp());
  constexpr std::uint64_t kBlocks = 20;
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    fabric::Block block = harness.next_block();
    for (auto& packet : sender.send(block).packets)
      peer.deliver_packet(std::move(packet));
    peer.deliver_block(std::move(block));
    if (feed == Feed::kOneBlockPerRun) sim.run();
  }
  sim.run();

  EXPECT_EQ(peer.ledger().height(), kBlocks);
  EXPECT_EQ(fabric::chain_divergence(peer.ledger(), harness.reference_ledger()),
            "");
  TimingRun run;
  run.finished_at = sim.now();
  run.events = sim.events_executed();
  for (const ResultEntry& result : peer.results())
    run.blocks.push_back({result.stats.received_at,
                          result.stats.validate_start,
                          result.stats.validate_end});
  if (peer.ledger().height() > 0)
    run.tail_hash =
        hex_encode(crypto::digest_view(peer.ledger().last().commit_hash));
  return run;
}

constexpr const char* kTimingTailHash =
    "a28cbcc7e839a39b9e3e7554424e60d4aecf07a40da08484e27236b19de49f65";

TEST(PeerTiming, HealthyOneBlockPerRun) {
  const TimingRun run = run_timing_chain(false, Feed::kOneBlockPerRun);
  EXPECT_EQ(run.finished_at, 20328500);
  EXPECT_EQ(run.events, 2142u);
  EXPECT_EQ(run.tail_hash, kTimingTailHash);
  const std::vector<BlockTimes> expected{
      {57600, 202600, 504400},       {1070000, 1215000, 1519200},
      {2084800, 2229800, 2534700},   {3100300, 3245300, 3548300},
      {4113900, 4258900, 4563200},   {5128800, 5273800, 5578700},
      {6144300, 6289300, 6595100},   {7160700, 7305700, 7609200},
      {8174800, 8319800, 8623700},   {9189300, 9334300, 9638700},
      {10204300, 10349300, 10653900}, {11219500, 11364500, 11670300},
      {12235900, 12380900, 12686800}, {13252400, 13397400, 13701400},
      {14267000, 14412000, 14717300}, {15282900, 15427900, 15732800},
      {16298400, 16443400, 16749700}, {17315300, 17460300, 17766500},
      {18332100, 18477100, 18780500}, {19346100, 19491100, 19796500}};
  EXPECT_EQ(run.blocks, expected);
}

TEST(PeerTiming, HealthyAllBlocksInFlight) {
  const TimingRun run = run_timing_chain(false, Feed::kAllBeforeRun);
  EXPECT_EQ(run.finished_at, 11106400);
  EXPECT_EQ(run.events, 2100u);
  EXPECT_EQ(run.tail_hash, kTimingTailHash);
  const std::vector<BlockTimes> expected{
      {57600, 202600, 504400},     {202600, 504400, 808600},
      {347600, 808600, 1113500},   {504400, 1113500, 1416500},
      {808600, 1416500, 1720800},  {1113500, 1720800, 2025700},
      {1416500, 2025700, 2331500}, {1720800, 2331500, 2635000},
      {2025700, 2635000, 2938900}, {2331500, 2938900, 3243300},
      {2635000, 3243300, 3547900}, {2938900, 3547900, 3853700},
      {3243300, 3853700, 4159600}, {3547900, 4159600, 4463600},
      {3853700, 4463600, 4768900}, {4159600, 4768900, 5073800},
      {4463600, 5276400, 5582700}, {4768900, 5806400, 6112600},
      {5276400, 6336400, 6639800}, {5806400, 6866400, 7171800}};
  EXPECT_EQ(run.blocks, expected);
}

TEST(PeerTiming, DegradedOnACleanDirectLink) {
  const TimingRun run = run_timing_chain(true, Feed::kAllBeforeRun);
  EXPECT_EQ(run.finished_at, 10726400);
  EXPECT_EQ(run.events, 2127u);
  EXPECT_EQ(run.tail_hash, kTimingTailHash);
  const std::vector<BlockTimes> expected{
      {57600, 202600, 504400},     {202600, 504400, 808600},
      {347600, 808600, 1113500},   {504400, 1113500, 1416500},
      {808600, 1416500, 1720800},  {1113500, 1720800, 2025700},
      {1416500, 2025700, 2331500}, {1720800, 2331500, 2635000},
      {2025700, 2635000, 2938900}, {2331500, 2938900, 3243300},
      {2635000, 3243300, 3547900}, {2938900, 3547900, 3853700},
      {3243300, 3853700, 4159600}, {3547900, 4159600, 4463600},
      {3853700, 4463600, 4768900}, {4159600, 4768900, 5073800},
      {4463600, 5073800, 5380100}, {4768900, 5380100, 5686300},
      {5073800, 5686300, 5989700}, {5380100, 5989700, 6295100}};
  EXPECT_EQ(run.blocks, expected);
}

// --- the chaos soak -----------------------------------------------------------

ChaosOptions soak_options(const std::string& config_name) {
  ChaosOptions options;
  options.network.block_size = 6;
  options.network.seed = 500;
  options.blocks = 10;
  std::string error;
  const auto loaded = serve::load_scenario(
      std::string(BM_REPO_ROOT) + "/configs/" + config_name, &error);
  EXPECT_TRUE(loaded.has_value() && loaded->faults.has_value()) << error;
  if (loaded && loaded->faults) options.scenario = *loaded->faults;
  return options;
}

TEST(ChaosSoak, EveryShippedScenarioCommitsReferenceHashes) {
  const char* configs[] = {"faults_burst.json", "faults_corrupt.json",
                           "faults_reorder.json", "faults_partition.json"};
  std::uint64_t total_fallbacks = 0;
  for (const char* name : configs) {
    obs::Registry registry;
    const ChaosReport report =
        workload::run_chaos_scenario(soak_options(name), &registry);
    EXPECT_TRUE(report.complete) << name << "\n" << report.to_text();
    EXPECT_TRUE(report.hashes_match) << name << "\n" << report.to_text();
    EXPECT_TRUE(report.flags_match) << name << "\n" << report.to_text();
    total_fallbacks += report.degrade.fallback_blocks;
    // The scenario actually impaired traffic, and the impairments are
    // visible in the metrics snapshot.
    EXPECT_GT(report.data_faults.frames, 0u) << name;
    const auto* assessed = registry.find_counter("chaos_data_frames_total");
    ASSERT_NE(assessed, nullptr) << name;
    EXPECT_GT(assessed->value(), 0u) << name;
  }
  // At least one scenario (the partition) must have exercised the fallback.
  EXPECT_GT(total_fallbacks, 0u);
}

TEST(ChaosSoak, PartitionScenarioExercisesFallbackVisibly) {
  obs::Registry registry;
  const ChaosReport report =
      workload::run_chaos_scenario(soak_options("faults_partition.json"),
                                   &registry);
  ASSERT_TRUE(report.ok()) << report.to_text();
  EXPECT_GT(report.degrade.fallback_blocks, 0u) << report.to_text();
  EXPECT_GT(report.sender_stats.frames_abandoned, 0u);
  EXPECT_GT(report.sender_stats.stream_resyncs, 0u);
  EXPECT_GT(report.data_faults.dropped_partition, 0u);
  // Fallback events are visible in the metrics snapshot.
  const auto* fallbacks = registry.find_counter("bmac_fallback_blocks_total");
  ASSERT_NE(fallbacks, nullptr);
  EXPECT_EQ(fallbacks->value(), report.degrade.fallback_blocks);
}

TEST(ChaosSoak, TamperedBlockStillRejectedUnderFaults) {
  ChaosOptions options = soak_options("faults_burst.json");
  options.tamper_last_block = true;
  const ChaosReport report = workload::run_chaos_scenario(options);
  ASSERT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.blocks_rejected, 1u);
  EXPECT_EQ(report.blocks_committed,
            static_cast<std::uint64_t>(options.blocks - 1));
}

TEST(ChaosSoak, ByteIdenticalAcrossRuns) {
  // Same seed + config => byte-identical report and metrics artifacts.
  auto run_once = [] {
    obs::Registry registry;
    const ChaosReport report =
        workload::run_chaos_scenario(soak_options("faults_partition.json"),
                                     &registry);
    return std::make_pair(report.to_text(), registry.render_json(0));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace bm::bmac
