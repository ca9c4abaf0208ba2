#include "net/faults.hpp"

#include <algorithm>

#include "common/config.hpp"

namespace bm::net {

bool FaultConfig::any() const {
  return loss_good > 0 || loss_bad > 0 || corrupt_detectable > 0 ||
         corrupt_silent > 0 || duplicate > 0 || reorder > 0 ||
         delay_spike > 0 || !partitions.empty();
}

FaultConfig FaultConfig::uniform_loss(double p, std::uint64_t seed) {
  FaultConfig config;
  config.loss_good = p;
  config.loss_bad = p;
  config.p_good_to_bad = 0.0;
  config.p_bad_to_good = 1.0;
  config.seed = seed;
  return config;
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

bool FaultInjector::in_partition(sim::Time now) const {
  for (const FaultConfig::Window& w : config_.partitions)
    if (now >= w.start && now < w.end) return true;
  return false;
}

FaultInjector::Verdict FaultInjector::assess(sim::Time now,
                                             std::size_t frame_size) {
  ++stats_.frames;
  Verdict verdict;

  // Fixed draw schedule: the chain state and every Bernoulli below are
  // advanced for every frame, whatever happens to it, so the fault sequence
  // seen by frame N is a function of (config, seed, N) alone.
  bad_state_ = bad_state_ ? !rng_.chance(config_.p_bad_to_good)
                          : rng_.chance(config_.p_good_to_bad);
  if (bad_state_) ++stats_.bad_state_frames;
  const bool lost =
      rng_.chance(bad_state_ ? config_.loss_bad : config_.loss_good);
  const bool corrupt_detected = rng_.chance(config_.corrupt_detectable);
  const bool corrupt_silent = rng_.chance(config_.corrupt_silent);
  const bool duplicate = rng_.chance(config_.duplicate);
  const bool reorder = rng_.chance(config_.reorder);
  const bool spike = rng_.chance(config_.delay_spike);

  if (in_partition(now)) {
    verdict.drop = DropReason::kPartition;
    ++stats_.dropped_partition;
    return verdict;
  }
  if (lost) {
    verdict.drop = DropReason::kLoss;
    ++stats_.dropped_loss;
    return verdict;
  }
  if (corrupt_detected) {
    verdict.drop = DropReason::kCorrupt;
    ++stats_.dropped_corrupt;
    return verdict;
  }

  if (corrupt_silent && frame_size > 0) {
    verdict.corrupt_silent = true;
    verdict.corrupt_offset =
        static_cast<std::size_t>(rng_.uniform(frame_size));
    verdict.corrupt_mask =
        static_cast<std::uint8_t>(1 + rng_.uniform(255));  // never zero
    ++stats_.corrupted_silent;
  }
  if (duplicate) {
    verdict.duplicate = true;
    ++stats_.duplicated;
  }
  if (reorder && config_.reorder_hold_max > 0) {
    verdict.extra_delay += static_cast<sim::Time>(
        rng_.uniform(static_cast<std::uint64_t>(config_.reorder_hold_max)));
    ++stats_.reordered;
  }
  if (spike) {
    verdict.extra_delay += config_.delay_spike_magnitude;
    ++stats_.delay_spikes;
  }
  return verdict;
}

void FaultInjector::publish_metrics(obs::Registry& registry,
                                    const std::string& prefix) const {
  registry.counter(prefix + "_frames_total", "frames assessed for faults")
      .set(stats_.frames);
  registry
      .counter(prefix + "_dropped_loss_total",
               "frames dropped by Gilbert-Elliott loss")
      .set(stats_.dropped_loss);
  registry
      .counter(prefix + "_dropped_partition_total",
               "frames blackholed inside a partition window")
      .set(stats_.dropped_partition);
  registry
      .counter(prefix + "_dropped_corrupt_total",
               "frames dropped by the link FCS (detectable corruption)")
      .set(stats_.dropped_corrupt);
  registry
      .counter(prefix + "_corrupted_silent_total",
               "frames delivered with flipped bytes (FCS miss)")
      .set(stats_.corrupted_silent);
  registry.counter(prefix + "_duplicated_total", "frames delivered twice")
      .set(stats_.duplicated);
  registry
      .counter(prefix + "_reordered_total",
               "frames held back so later frames overtake")
      .set(stats_.reordered);
  registry.counter(prefix + "_delay_spikes_total", "frames hit by a delay spike")
      .set(stats_.delay_spikes);
  registry
      .counter(prefix + "_bad_state_frames_total",
               "frames assessed while the Gilbert-Elliott chain was BAD")
      .set(stats_.bad_state_frames);
}

void FaultyChannel::send(Bytes frame) {
  const std::size_t bytes = frame.size();
  FaultInjector::Verdict verdict = injector_.assess(sim_.now(), bytes);

  if (tracer_ != nullptr) {
    if (verdict.dropped()) {
      const char* reason =
          verdict.drop == FaultInjector::DropReason::kPartition ? "partition"
          : verdict.drop == FaultInjector::DropReason::kCorrupt ? "fcs_drop"
                                                                : "loss";
      tracer_->instant(lane_, reason, "fault", sim_.now(),
                       {{"bytes", static_cast<std::uint64_t>(bytes)}});
    } else if (verdict.corrupt_silent || verdict.duplicate ||
               verdict.extra_delay > 0) {
      tracer_->instant(
          lane_, "impaired", "fault", sim_.now(),
          {{"silent_corrupt", verdict.corrupt_silent},
           {"duplicate", verdict.duplicate},
           {"extra_delay_us",
            static_cast<std::uint64_t>(verdict.extra_delay / 1000)}});
    }
  }

  if (verdict.dropped()) {
    // The sender's NIC still burns wire time on a doomed frame.
    link_.send(bytes, [] {});
    return;
  }

  if (verdict.corrupt_silent) {
    frame[verdict.corrupt_offset] ^= verdict.corrupt_mask;
  }

  Bytes duplicate_copy;
  if (verdict.duplicate) duplicate_copy = frame;

  auto deliver = [this, frame = std::move(frame)]() mutable {
    if (receiver_) receiver_(std::move(frame));
  };
  if (verdict.extra_delay > 0) {
    link_.send(bytes,
               [this, d = verdict.extra_delay,
                deliver = std::move(deliver)]() mutable {
                 sim_.schedule(d, std::move(deliver));
               });
  } else {
    link_.send(bytes, std::move(deliver));
  }

  if (verdict.duplicate) {
    link_.send(bytes, [this, copy = std::move(duplicate_copy)]() mutable {
      if (receiver_) receiver_(std::move(copy));
    });
  }
}

// --- JSON scenario loading --------------------------------------------------
//
// Built on the shared scenario-config facility (common/config.hpp):
// diagnostics name the file (when loaded from disk) and the JSON path of
// the offending key, e.g. `faults.data.loss.good: expected number in [0, 1]`.

namespace {

/// One direction ("data" / "ack"). Missing object => all-defaults (clean).
void parse_direction(const config::Section& dir, FaultConfig* config) {
  const config::Section loss = dir.object("loss");
  loss.read_number("good", &config->loss_good, config::unit_interval());
  loss.read_number("bad", &config->loss_bad, config::unit_interval());
  loss.read_number("p_good_to_bad", &config->p_good_to_bad,
                   config::unit_interval());
  loss.read_number("p_bad_to_good", &config->p_bad_to_good,
                   config::unit_interval());
  const config::Section corrupt = dir.object("corrupt");
  corrupt.read_number("detectable", &config->corrupt_detectable,
                      config::unit_interval());
  corrupt.read_number("silent", &config->corrupt_silent,
                      config::unit_interval());
  dir.read_number("duplicate", &config->duplicate, config::unit_interval());
  const config::Section reorder = dir.object("reorder");
  reorder.read_number("probability", &config->reorder,
                      config::unit_interval());
  reorder.read_time_us("hold_max_us", &config->reorder_hold_max,
                       config::non_negative());
  const config::Section spike = dir.object("delay_spike");
  spike.read_number("probability", &config->delay_spike,
                    config::unit_interval());
  spike.read_time_us("magnitude_us", &config->delay_spike_magnitude,
                     config::non_negative());
  const config::Section partitions = dir.array("partitions_ms");
  for (std::size_t i = 0; i < partitions.array_size(); ++i) {
    const config::Section window = partitions.element(i);
    if (!window.is_array() || window.array_size() != 2) {
      window.fail("expected [start_ms, end_ms]");
      return;
    }
    double start_ms = 0;
    double end_ms = 0;
    if (!window.element(0).value_number(&start_ms, config::non_negative()) ||
        !window.element(1).value_number(&end_ms, config::non_negative()))
      return;
    if (start_ms > end_ms) {
      window.fail("expected start_ms <= end_ms");
      return;
    }
    FaultConfig::Window w;
    w.start = static_cast<sim::Time>(start_ms *
                                     static_cast<double>(sim::kMillisecond));
    w.end =
        static_cast<sim::Time>(end_ms * static_cast<double>(sim::kMillisecond));
    config->partitions.push_back(w);
  }
}

}  // namespace

namespace detail {

FaultScenario parse_faults_section(const bm::config::Section& s) {
  FaultScenario scenario;

  std::uint64_t seed = 1;
  s.read_u64("seed", &seed);
  scenario.data.seed = seed;
  // Decorrelate the reverse direction with a fixed odd-constant mix so one
  // top-level seed still yields two independent deterministic schedules.
  scenario.ack.seed = seed ^ 0x9E3779B97F4A7C15ull;

  parse_direction(s.object("data"), &scenario.data);
  parse_direction(s.object("ack"), &scenario.ack);
  return scenario;
}

}  // namespace detail

}  // namespace bm::net
