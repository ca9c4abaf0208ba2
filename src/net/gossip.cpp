#include "net/gossip.hpp"

#include <stdexcept>
#include <string>

namespace bm::net {

namespace {
/// Per-hop propagation + stack latency, plus a uniform jitter in
/// [0, kHopJitter).
constexpr sim::Time kHopDelay = 300 * sim::kMicrosecond;
constexpr sim::Time kHopJitter = 200 * sim::kMicrosecond;
/// A peer's local processing before it forwards a newly learned block.
constexpr sim::Time kForwardProcessing = 200 * sim::kMicrosecond;
}  // namespace

GossipNetwork::GossipNetwork(sim::Simulation& sim, int peers, Config config)
    : sim_(sim),
      config_(config),
      rng_(config.seed ^ 0x60551Bull),
      peers_(static_cast<std::size_t>(peers)) {
  if (config_.faults.any())
    faults_ = std::make_unique<FaultInjector>(config_.faults);
}

GossipNetwork::PeerState& GossipNetwork::state_of(int peer, const char* what) {
  if (peer < 0 || peer >= peer_count())
    throw std::out_of_range(std::string("GossipNetwork::") + what + ": peer " +
                            std::to_string(peer) + " outside [0, " +
                            std::to_string(peer_count()) + ")");
  return peers_[static_cast<std::size_t>(peer)];
}

const GossipNetwork::PeerState& GossipNetwork::state_of(
    int peer, const char* what) const {
  return const_cast<GossipNetwork*>(this)->state_of(peer, what);
}

void GossipNetwork::publish(int origin, std::uint64_t block_num,
                            Bytes payload) {
  state_of(origin, "publish");  // validate before touching the mesh
  const std::size_t bytes = payload.size();
  payloads_.emplace(block_num, std::move(payload));  // first publish wins
  receive(origin, block_num, bytes, /*from_repair=*/false);
}

void GossipNetwork::set_peer_online(int peer, bool online) {
  state_of(peer, "set_peer_online").online = online;
}

void GossipNetwork::reset_peer(int peer) {
  PeerState& state = state_of(peer, "reset_peer");
  state.known.clear();
  state.sizes.clear();
}

void GossipNetwork::mark_known(int peer, std::uint64_t block_num) {
  PeerState& state = state_of(peer, "mark_known");
  if (!state.known.insert(block_num).second) return;
  const auto payload = payloads_.find(block_num);
  state.sizes[block_num] = payload != payloads_.end() ? payload->second.size()
                                                      : 0;
}

void GossipNetwork::push_to(int from, int to, std::uint64_t block_num,
                            std::size_t bytes, bool is_repair) {
  ++messages_sent_;
  sim::Time fault_delay = 0;
  if (faults_ != nullptr) {
    const FaultInjector::Verdict verdict = faults_->assess(sim_.now(), bytes);
    if (verdict.dropped()) return;
    fault_delay = verdict.extra_delay;
  }
  const auto serialization = static_cast<sim::Time>(
      static_cast<double>(bytes) * 8.0 / (config_.gbps * 1e9) * sim::kSecond);
  const sim::Time delay =
      serialization + kHopDelay + fault_delay +
      static_cast<sim::Time>(
          rng_.uniform(static_cast<std::uint64_t>(kHopJitter)));
  sim_.schedule(delay, [this, to, block_num, bytes, is_repair] {
    if (is_repair &&
        peers_[static_cast<std::size_t>(to)].known.count(block_num) == 0 &&
        peers_[static_cast<std::size_t>(to)].online)
      ++repairs_;
    receive(to, block_num, bytes, is_repair);
  });
  (void)from;
}

void GossipNetwork::receive(int peer, std::uint64_t block_num,
                            std::size_t bytes, bool from_repair) {
  PeerState& state = peers_[static_cast<std::size_t>(peer)];
  if (!state.online) {
    ++dropped_offline_;
    return;
  }
  if (!state.known.insert(block_num).second) {
    ++duplicates_;
    return;
  }
  state.sizes[block_num] = bytes;
  if (on_payload_) {
    const auto payload = payloads_.find(block_num);
    if (payload != payloads_.end()) on_payload_(peer, block_num,
                                                payload->second);
  }
  (void)from_repair;

  // Forward to `fanout` distinct random neighbours after local processing.
  const int n = peer_count();
  if (n <= 1) return;
  std::set<int> targets;
  while (static_cast<int>(targets.size()) <
         std::min(config_.fanout, n - 1)) {
    const int target = static_cast<int>(rng_.uniform(
        static_cast<std::uint64_t>(n)));
    if (target != peer) targets.insert(target);
  }
  for (const int target : targets) {
    sim_.schedule(kForwardProcessing, [this, peer, target, block_num, bytes] {
      push_to(peer, target, block_num, bytes, /*is_repair=*/false);
    });
  }
}

void GossipNetwork::start_anti_entropy() {
  if (anti_entropy_running_) return;
  anti_entropy_running_ = true;
  for (int peer = 0; peer < peer_count(); ++peer) {
    // Staggered periodic rounds per peer; each round re-arms itself.
    const sim::Time phase = static_cast<sim::Time>(rng_.uniform(
        static_cast<std::uint64_t>(config_.anti_entropy_interval)));
    sim_.schedule(phase, [this, peer] { anti_entropy_round(peer); });
  }
}

void GossipNetwork::anti_entropy_round(int peer) {
  if (!anti_entropy_running_) return;
  const int n = peer_count();
  if (n <= 1) return;
  int partner = peer;
  while (partner == peer)
    partner = static_cast<int>(rng_.uniform(static_cast<std::uint64_t>(n)));

  // Digest exchange: the partner pushes everything `peer` is missing (and
  // vice versa) — reliable repair path, smaller than re-gossiping. An
  // offline endpoint neither serves nor pulls; its round keeps re-arming so
  // repair resumes the moment it returns.
  const PeerState& mine = peers_[static_cast<std::size_t>(peer)];
  const PeerState& theirs = peers_[static_cast<std::size_t>(partner)];
  if (mine.online && theirs.online) {
    for (const auto& [block_num, bytes] : theirs.sizes)
      if (mine.known.count(block_num) == 0)
        push_to(partner, peer, block_num, bytes, /*is_repair=*/true);
    for (const auto& [block_num, bytes] : mine.sizes)
      if (theirs.known.count(block_num) == 0)
        push_to(peer, partner, block_num, bytes, /*is_repair=*/true);
  }

  // Re-arm.
  sim_.schedule(config_.anti_entropy_interval,
                [this, peer] { anti_entropy_round(peer); });
}

}  // namespace bm::net
