// Deterministic, seedable network fault injection (the adversarial-network
// layer behind the §5 reliability discussion).
//
// net::Link models a clean point-to-point wire with at most uniform i.i.d.
// loss. Real degraded networks misbehave in correlated ways: losses arrive
// in bursts (modeled here with the classic two-state Gilbert–Elliott
// channel), payloads get corrupted (usually caught by the Ethernet FCS and
// dropped, occasionally slipping through silently), frames are duplicated
// or reordered by rerouting, queues add delay spikes, and whole windows of
// time are blackholed by partitions. This header provides:
//
//   - FaultConfig: the knob set for one direction of a channel, loaded
//     from a scenario's "faults" section (schema in docs/FAULTS.md);
//   - FaultInjector: the deterministic decision engine — same seed + config
//     => byte-identical fault schedule, independent of observability;
//   - FaultyChannel: a payload-carrying channel composing a FaultInjector
//     onto any Link, delivering (possibly corrupted) frames to a receiver
//     callback. The Go-Back-N shim (bmac/reliable.hpp) rides on top of it
//     and turns every fault except undetected corruption back into "loss".
//
// This layer is the only source of impairments: links, gossip and Raft
// have no loss knobs of their own. Uniform i.i.d. loss is
// FaultConfig::uniform_loss(p, seed).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace bm::config {
class Section;
}

namespace bm::net {

/// Fault schedule for ONE direction of a channel.
struct FaultConfig {
  // --- Gilbert–Elliott burst loss ---------------------------------------
  // Two-state Markov chain advanced once per frame: GOOD drops with
  // `loss_good`, BAD with `loss_bad`. Uniform i.i.d. loss is the special
  // case loss_good == loss_bad with no transitions.
  double loss_good = 0.0;
  double loss_bad = 0.0;
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;

  // --- payload corruption ------------------------------------------------
  /// Corruption the link-layer FCS catches: the frame is dropped at the
  /// receiving NIC (upper layers see it as loss).
  double corrupt_detectable = 0.0;
  /// Corruption the FCS misses: the frame is delivered with flipped bytes.
  /// Catching these is the job of an end-to-end check (the GBN frame CRC).
  double corrupt_silent = 0.0;

  // --- duplication / reordering / delay ----------------------------------
  double duplicate = 0.0;  ///< frame delivered twice
  double reorder = 0.0;    ///< frame held back so later frames overtake it
  sim::Time reorder_hold_max = 500 * sim::kMicrosecond;  ///< uniform hold
  double delay_spike = 0.0;
  sim::Time delay_spike_magnitude = 2 * sim::kMillisecond;

  // --- scheduled partitions ----------------------------------------------
  /// Blackhole windows on simulated time: every frame sent with
  /// start <= now < end is dropped.
  struct Window {
    sim::Time start = 0;
    sim::Time end = 0;
  };
  std::vector<Window> partitions;

  std::uint64_t seed = 1;

  /// True when any knob can affect a frame.
  bool any() const;

  /// I.i.d. loss `p` (a Gilbert–Elliott chain that never leaves GOOD).
  static FaultConfig uniform_loss(double p, std::uint64_t seed = 1);
};

struct FaultStats {
  std::uint64_t frames = 0;             ///< frames assessed
  std::uint64_t dropped_loss = 0;       ///< Gilbert–Elliott drops
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_corrupt = 0;    ///< FCS-detected corruption
  std::uint64_t corrupted_silent = 0;   ///< delivered with flipped bytes
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delay_spikes = 0;
  std::uint64_t bad_state_frames = 0;   ///< frames assessed in the BAD state

  std::uint64_t dropped_total() const {
    return dropped_loss + dropped_partition + dropped_corrupt;
  }
};

/// The deterministic decision engine, link-agnostic so GossipNetwork and
/// tests can reuse it without a Link. Every assess() draws the same fixed
/// number of random values regardless of outcome (partitions included), so
/// the fault schedule after any prefix is independent of what the faults
/// hit — and byte-identical across runs for a given config.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  enum class DropReason { kNone, kLoss, kPartition, kCorrupt };

  struct Verdict {
    DropReason drop = DropReason::kNone;
    bool corrupt_silent = false;
    std::size_t corrupt_offset = 0;  ///< byte to flip when corrupt_silent
    std::uint8_t corrupt_mask = 0;   ///< non-zero XOR mask
    bool duplicate = false;
    sim::Time extra_delay = 0;       ///< reorder hold + delay spike

    bool dropped() const { return drop != DropReason::kNone; }
  };

  /// Decide the fate of the next frame of `frame_size` bytes sent at `now`.
  Verdict assess(sim::Time now, std::size_t frame_size);

  bool in_partition(sim::Time now) const;
  bool bad_state() const { return bad_state_; }
  const FaultStats& stats() const { return stats_; }
  const FaultConfig& config() const { return config_; }

  /// Snapshot the counters under "<prefix>_..." (idempotent).
  void publish_metrics(obs::Registry& registry,
                       const std::string& prefix) const;

 private:
  FaultConfig config_;
  Rng rng_;
  bool bad_state_ = false;
  FaultStats stats_;
};

/// A payload-carrying unreliable channel: frames (byte vectors) sent through
/// a FaultInjector composed onto a Link. The Link charges serialization +
/// propagation for every frame (including doomed ones — the sender's NIC
/// transmits regardless); the injector decides what arrives, in what shape,
/// and when. The Link itself is lossless: all impairments belong to the
/// injector so they are scriptable and counted.
class FaultyChannel {
 public:
  using DeliverFn = std::function<void(Bytes)>;

  FaultyChannel(sim::Simulation& sim, Link& link, FaultConfig config)
      : sim_(sim), link_(link), injector_(std::move(config)) {}

  void set_receiver(DeliverFn receiver) { receiver_ = std::move(receiver); }

  /// Send one frame toward the receiver callback.
  void send(Bytes frame);

  const FaultStats& stats() const { return injector_.stats(); }
  FaultInjector& injector() { return injector_; }
  Link& link() { return link_; }

  /// Emit one "fault"-category instant per injected fault onto `lane`.
  /// Null detaches. Purely cosmetic: never schedules events.
  void set_tracer(obs::Tracer* tracer, int lane) {
    tracer_ = tracer;
    lane_ = lane;
  }

  void publish_metrics(obs::Registry& registry,
                       const std::string& prefix) const {
    injector_.publish_metrics(registry, prefix);
  }

 private:
  sim::Simulation& sim_;
  Link& link_;
  FaultInjector injector_;
  DeliverFn receiver_;
  obs::Tracer* tracer_ = nullptr;
  int lane_ = 0;
};

/// A two-directional fault schedule, a scenario's "faults" section
/// (configs/faults_*.json): `data` applies to the forward (sender ->
/// receiver) direction, `ack` to the reverse. See docs/FAULTS.md for the
/// schema.
struct FaultScenario {
  FaultConfig data;
  FaultConfig ack;
};

namespace detail {
/// Parser of a composed scenario's "faults" section (serve/scenario.cpp
/// loads the file). Errors land in the section's sink; the caller checks
/// its config::Root.
FaultScenario parse_faults_section(const bm::config::Section& root);
}  // namespace detail

}  // namespace bm::net
