// Peer-to-peer gossip dissemination of blocks (§2.2: Fabric's Gossip
// protocol spreads blocks from the lead peer of each org to the others).
//
// Push gossip with bounded fanout plus periodic anti-entropy pulls: a peer
// that first learns a block forwards it to `fanout` random neighbours;
// losses are repaired when a peer's periodic digest exchange reveals a gap.
// Message timing charges the block's wire size against a per-hop link rate,
// so disseminating the 4-5x smaller BMac-protocol encoding measurably beats
// full Gossip blocks — §5's "our protocol can also be used by the lead peer
// to send blocks to other peers in its own organization".
//
// Delivered blocks carry the real marshaled bytes each peer validates and
// commits (src/cluster): publish() registers the payload once network-wide
// and hands it to the payload callback on each peer's first delivery.
#pragma once

#include <functional>
#include <map>
#include <set>

#include <memory>

#include "common/rng.hpp"
#include "net/faults.hpp"
#include "sim/simulation.hpp"

namespace bm::net {

class GossipNetwork {
 public:
  struct Config {
    int fanout = 2;
    double gbps = 1.0;  ///< per-hop link rate (serialization delay)
    sim::Time hop_delay = 300 * sim::kMicrosecond;  ///< propagation + stack
    sim::Time hop_jitter = 200 * sim::kMicrosecond;
    sim::Time forward_processing = 200 * sim::kMicrosecond;
    /// Hop-level fault schedule (drop/delay decisions; corruption and
    /// duplication do not apply to gossip messages). Uniform i.i.d. loss is
    /// FaultConfig::uniform_loss(p, seed); its own seed keeps the topology
    /// RNG sequence untouched, so enabling faults never reshuffles fanout.
    FaultConfig faults;
    sim::Time anti_entropy_interval = 50 * sim::kMillisecond;
    std::uint64_t seed = 1;
  };

  /// Fired exactly once per (peer, block): first delivery.
  using PayloadFn = std::function<void(int peer, std::uint64_t block_num,
                                       const Bytes& payload)>;

  GossipNetwork(sim::Simulation& sim, int peers, Config config);

  void set_payload_callback(PayloadFn fn) { on_payload_ = std::move(fn); }

  /// Start the anti-entropy processes (optional; push-only without it).
  void start_anti_entropy();
  void stop_anti_entropy() { anti_entropy_running_ = false; }

  /// Inject a block with its marshaled bytes at `origin` (e.g. the org's
  /// lead peer): the payload is registered network-wide (first publish of a
  /// block number wins) and handed to the payload callback on each peer's
  /// first delivery. Re-publishing the same block number at another origin
  /// re-injects without re-registering. Throws std::out_of_range unless
  /// 0 <= origin < peer_count().
  void publish(int origin, std::uint64_t block_num, Bytes payload);

  /// Throws std::out_of_range unless 0 <= peer < peer_count().
  bool peer_has(int peer, std::uint64_t block_num) const {
    return state_of(peer, "peer_has").known.count(block_num) > 0;
  }
  int peer_count() const { return static_cast<int>(peers_.size()); }

  // --- peer lifecycle (cluster crash / restart modeling) ---------------------

  /// Take a peer off / back onto the mesh. Messages to an offline peer are
  /// dropped at delivery (they never become "known", so anti-entropy repairs
  /// them after the peer returns); an offline peer neither serves nor pulls
  /// digests.
  void set_peer_online(int peer, bool online);
  bool peer_online(int peer) const {
    return state_of(peer, "peer_online").online;
  }

  /// Forget everything a peer knows (crash with state loss). The peer's
  /// delivery history is wiped, so a later restart re-learns via catch-up.
  void reset_peer(int peer);

  /// Seed a peer's view without a delivery (state transfer: the peer now
  /// holds the block through the catch-up path, so gossip must not re-push
  /// it). The advertised size comes from the payload registry when present.
  void mark_known(int peer, std::uint64_t block_num);

  // --- statistics -------------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t duplicates_received() const { return duplicates_; }
  std::uint64_t anti_entropy_repairs() const { return repairs_; }
  std::uint64_t dropped_offline() const { return dropped_offline_; }
  /// Fault counters when Config::faults is active (null otherwise).
  const FaultStats* fault_stats() const {
    return faults_ ? &faults_->stats() : nullptr;
  }

 private:
  struct PeerState {
    std::set<std::uint64_t> known;
    std::map<std::uint64_t, std::size_t> sizes;  ///< for anti-entropy pulls
    bool online = true;
  };

  PeerState& state_of(int peer, const char* what);
  const PeerState& state_of(int peer, const char* what) const;

  void receive(int peer, std::uint64_t block_num, std::size_t bytes,
               bool from_repair);
  void push_to(int from, int to, std::uint64_t block_num, std::size_t bytes,
               bool is_repair);
  void anti_entropy_round(int peer);

  sim::Simulation& sim_;
  Config config_;
  Rng rng_;
  std::unique_ptr<FaultInjector> faults_;  ///< null without Config::faults
  std::vector<PeerState> peers_;
  std::map<std::uint64_t, Bytes> payloads_;  ///< network-wide payload registry
  PayloadFn on_payload_;
  bool anti_entropy_running_ = false;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t dropped_offline_ = 0;
};

}  // namespace bm::net
