// The fault-injection layer (net/faults.hpp): determinism, the
// Gilbert–Elliott burst channel, the corruption split, duplication /
// reordering / partitions, and the scenario loader's "faults" section
// (including the shipped configs/faults_*.json files).
#include <gtest/gtest.h>

#include <fstream>

#include "net/faults.hpp"
#include "serve/scenario.hpp"

namespace bm::net {
namespace {

FaultConfig bursty(std::uint64_t seed = 7) {
  FaultConfig config;
  config.loss_good = 0.01;
  config.loss_bad = 0.6;
  config.p_good_to_bad = 0.05;
  config.p_bad_to_good = 0.25;
  config.seed = seed;
  return config;
}

TEST(FaultInjector, DeterministicScheduleForSeedAndConfig) {
  FaultConfig config = bursty();
  config.corrupt_detectable = 0.02;
  config.corrupt_silent = 0.02;
  config.duplicate = 0.03;
  config.reorder = 0.05;
  config.delay_spike = 0.01;

  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 5000; ++i) {
    const auto va = a.assess(i * 1000, 512);
    const auto vb = b.assess(i * 1000, 512);
    ASSERT_EQ(static_cast<int>(va.drop), static_cast<int>(vb.drop)) << i;
    ASSERT_EQ(va.corrupt_silent, vb.corrupt_silent) << i;
    ASSERT_EQ(va.corrupt_offset, vb.corrupt_offset) << i;
    ASSERT_EQ(va.corrupt_mask, vb.corrupt_mask) << i;
    ASSERT_EQ(va.duplicate, vb.duplicate) << i;
    ASSERT_EQ(va.extra_delay, vb.extra_delay) << i;
  }
  EXPECT_EQ(a.stats().dropped_loss, b.stats().dropped_loss);
  EXPECT_EQ(a.stats().corrupted_silent, b.stats().corrupted_silent);

  // A different seed produces a different schedule.
  FaultInjector c(bursty(8));
  bool diverged = false;
  FaultInjector d(bursty(7));
  for (int i = 0; i < 2000 && !diverged; ++i)
    diverged = c.assess(i * 1000, 512).dropped() !=
               d.assess(i * 1000, 512).dropped();
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, GilbertElliottLossesArriveInBursts) {
  FaultInjector injector(bursty());
  int drops = 0, frames = 20000, runs = 0, current_run = 0;
  int longest_run = 0;
  for (int i = 0; i < frames; ++i) {
    if (injector.assess(i * 1000, 512).dropped()) {
      ++drops;
      ++current_run;
      longest_run = std::max(longest_run, current_run);
    } else {
      if (current_run > 0) ++runs;
      current_run = 0;
    }
  }
  // Stationary bad fraction 0.05/(0.05+0.25) = 1/6 => ~10.8% average loss.
  const double rate = static_cast<double>(drops) / frames;
  EXPECT_GT(rate, 0.07);
  EXPECT_LT(rate, 0.15);
  // Burstiness: mean run length well above the i.i.d. expectation (~1.1)
  // and at least one long burst.
  const double mean_run = static_cast<double>(drops) / std::max(runs, 1);
  EXPECT_GT(mean_run, 1.3);
  EXPECT_GE(longest_run, 4);
  EXPECT_GT(injector.stats().bad_state_frames, 0u);
}

TEST(FaultInjector, CorruptionSplitsIntoDetectedAndSilent) {
  FaultConfig config;
  config.corrupt_detectable = 0.1;
  config.corrupt_silent = 0.1;
  config.seed = 11;
  FaultInjector injector(config);
  int dropped = 0, silent = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto v = injector.assess(i * 1000, 256);
    if (v.drop == FaultInjector::DropReason::kCorrupt) ++dropped;
    if (v.corrupt_silent) {
      ++silent;
      EXPECT_LT(v.corrupt_offset, 256u);
      EXPECT_NE(v.corrupt_mask, 0);  // XOR with zero would be a no-op
    }
  }
  EXPECT_GT(dropped, 700);
  EXPECT_GT(silent, 700);
  EXPECT_EQ(injector.stats().dropped_corrupt, static_cast<std::uint64_t>(dropped));
  EXPECT_EQ(injector.stats().corrupted_silent, static_cast<std::uint64_t>(silent));
}

TEST(FaultInjector, PartitionWindowsBlackholeEverything) {
  FaultConfig config;
  config.partitions.push_back(
      {10 * sim::kMillisecond, 20 * sim::kMillisecond});
  config.seed = 3;
  FaultInjector injector(config);
  EXPECT_FALSE(injector.in_partition(9 * sim::kMillisecond));
  EXPECT_TRUE(injector.in_partition(10 * sim::kMillisecond));
  EXPECT_TRUE(injector.in_partition(19 * sim::kMillisecond));
  EXPECT_FALSE(injector.in_partition(20 * sim::kMillisecond));

  for (int i = 0; i < 100; ++i) {
    const sim::Time t = 10 * sim::kMillisecond + i * 100 * sim::kMicrosecond;
    EXPECT_EQ(static_cast<int>(injector.assess(t, 64).drop),
              static_cast<int>(FaultInjector::DropReason::kPartition));
  }
  const auto after = injector.assess(25 * sim::kMillisecond, 64);
  EXPECT_FALSE(after.dropped());
  EXPECT_EQ(injector.stats().dropped_partition, 100u);
}

TEST(FaultyChannel, DeliversCorruptsAndDuplicatesDeterministically) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    net::Link link(sim, {});
    FaultConfig config;
    config.loss_good = config.loss_bad = 0.1;
    config.corrupt_silent = 0.1;
    config.duplicate = 0.1;
    config.seed = seed;
    FaultyChannel channel(sim, link, config);
    std::vector<Bytes> received;
    channel.set_receiver([&](Bytes frame) { received.push_back(std::move(frame)); });
    for (int i = 0; i < 500; ++i) {
      Bytes frame(64, static_cast<std::uint8_t>(i));
      channel.send(std::move(frame));
    }
    sim.run();
    return received;
  };
  const auto a = run(5);
  const auto b = run(5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  // Loss removed some frames, duplication added others; corruption flipped
  // exactly one byte in some delivered frames.
  EXPECT_NE(a.size(), 500u);
  int corrupted = 0;
  for (const Bytes& frame : a) {
    int flipped = 0;
    for (std::size_t j = 1; j < frame.size(); ++j)
      if (frame[j] != frame[0]) ++flipped;
    // Either intact (all bytes equal) or exactly one byte differs — unless
    // byte 0 itself was flipped, in which case all others "differ".
    if (flipped == 1 || flipped == static_cast<int>(frame.size()) - 1)
      ++corrupted;
    else
      EXPECT_EQ(flipped, 0);
  }
  EXPECT_GT(corrupted, 0);
}

TEST(FaultScenario, ParsesFullSchema) {
  const char* text = R"({"name": "test", "faults": {
    "seed": 99,
    "data": {
      "loss": {"good": 0.01, "bad": 0.5, "p_good_to_bad": 0.02,
               "p_bad_to_good": 0.3},
      "corrupt": {"detectable": 0.03, "silent": 0.04},
      "duplicate": 0.05,
      "reorder": {"probability": 0.06, "hold_max_us": 250},
      "delay_spike": {"probability": 0.07, "magnitude_us": 1500},
      "partitions_ms": [[10, 20], [50, 60]]
    },
    "ack": {
      "loss": {"good": 0.08, "bad": 0.08}
    }
  }})";
  std::string error;
  const auto loaded = serve::parse_scenario(text, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(loaded->faults.has_value());
  EXPECT_EQ(loaded->name, "test");
  const FaultScenario* scenario = &*loaded->faults;
  EXPECT_EQ(scenario->data.seed, 99u);
  EXPECT_NE(scenario->ack.seed, 99u);  // decorrelated
  EXPECT_DOUBLE_EQ(scenario->data.loss_good, 0.01);
  EXPECT_DOUBLE_EQ(scenario->data.loss_bad, 0.5);
  EXPECT_DOUBLE_EQ(scenario->data.p_good_to_bad, 0.02);
  EXPECT_DOUBLE_EQ(scenario->data.p_bad_to_good, 0.3);
  EXPECT_DOUBLE_EQ(scenario->data.corrupt_detectable, 0.03);
  EXPECT_DOUBLE_EQ(scenario->data.corrupt_silent, 0.04);
  EXPECT_DOUBLE_EQ(scenario->data.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(scenario->data.reorder, 0.06);
  EXPECT_EQ(scenario->data.reorder_hold_max, 250 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(scenario->data.delay_spike, 0.07);
  EXPECT_EQ(scenario->data.delay_spike_magnitude, 1500 * sim::kMicrosecond);
  ASSERT_EQ(scenario->data.partitions.size(), 2u);
  EXPECT_EQ(scenario->data.partitions[0].start, 10 * sim::kMillisecond);
  EXPECT_EQ(scenario->data.partitions[1].end, 60 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(scenario->ack.loss_good, 0.08);
  EXPECT_TRUE(scenario->data.any());
  EXPECT_TRUE(scenario->ack.any());
}

TEST(FaultScenario, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(serve::parse_scenario("[1,2,3]", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(serve::parse_scenario(
                   R"({"faults": {"data": {"duplicate": "high"}}})", &error)
                   .has_value());
  EXPECT_FALSE(
      serve::parse_scenario(
          R"({"faults": {"data": {"partitions_ms": [[20, 10]]}}})", &error)
          .has_value());
  EXPECT_FALSE(serve::load_scenario("/nonexistent/faults.json", &error)
                   .has_value());
}

TEST(FaultScenario, ShippedConfigsParse) {
  const char* names[] = {"faults_burst.json", "faults_corrupt.json",
                         "faults_reorder.json", "faults_partition.json"};
  for (const char* name : names) {
    const std::string path = std::string(BM_REPO_ROOT) + "/configs/" + name;
    std::string error;
    const auto loaded = serve::load_scenario(path, &error);
    ASSERT_TRUE(loaded.has_value()) << path << ": " << error;
    ASSERT_TRUE(loaded->faults.has_value()) << path;
    EXPECT_FALSE(loaded->name.empty()) << path;
    EXPECT_TRUE(loaded->faults->data.any()) << path;
  }
}

TEST(FaultConfigAdapter, UniformLossMatchesDeprecatedKnob) {
  const FaultConfig config = FaultConfig::uniform_loss(0.25, 42);
  EXPECT_DOUBLE_EQ(config.loss_good, 0.25);
  EXPECT_DOUBLE_EQ(config.loss_bad, 0.25);
  EXPECT_DOUBLE_EQ(config.p_good_to_bad, 0.0);
  EXPECT_TRUE(config.any());
  FaultInjector injector(config);
  int drops = 0;
  for (int i = 0; i < 10000; ++i)
    if (injector.assess(i, 100).dropped()) ++drops;
  EXPECT_GT(drops, 2200);
  EXPECT_LT(drops, 2800);
}

}  // namespace
}  // namespace bm::net
