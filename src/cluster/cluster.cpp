#include "cluster/cluster.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/hex.hpp"
#include "obs/metrics.hpp"

namespace bm::cluster {

ClusterDeployment::ClusterDeployment(sim::Simulation& sim, ClusterConfig config)
    : sim_(sim), config_(std::move(config)) {
  workload::NetworkOptions options;
  options.orgs = config_.orgs;
  options.block_size = config_.block_size;
  options.seed = config_.seed;
  options.policy_text =
      config_.policy_text.empty()
          ? std::to_string(config_.orgs) + "-outof-" +
                std::to_string(config_.orgs) + " orgs"
          : config_.policy_text;
  harness_ = std::make_unique<workload::FabricNetworkHarness>(options);

  // Ordering-cluster identities: round-robin across the orgs' CAs, with
  // per-org sequence numbers starting at 1 — seq 0 is the harness's own
  // reference orderer and encoded ids (org, role, seq) must stay unique.
  std::vector<fabric::Identity> identities;
  for (int i = 0; i < config_.orderers; ++i) {
    const int org = i % config_.orgs + 1;
    const int seq = 1 + i / config_.orgs;
    if (seq > 15)
      throw std::invalid_argument(
          "ClusterDeployment: too many orderers per org (sequence is 4 bits)");
    const fabric::CertificateAuthority* ca =
        harness_->msp().find_org("Org" + std::to_string(org));
    identities.push_back(
        ca->issue(fabric::Role::kOrderer, static_cast<std::uint8_t>(seq),
                  "orderer" + std::to_string(i) + ".org" +
                      std::to_string(org) + ".example.com"));
  }

  fabric::RaftOrderingService::Config ordering = config_.ordering;
  ordering.nodes = config_.orderers;
  ordering.max_tx_per_block = config_.block_size;
  ordering.seed = config_.seed ^ 0x0DDE12ull;
  ordering_ = std::make_unique<fabric::RaftOrderingService>(
      sim_, ordering, std::move(identities));
  ordering_->set_block_callback(
      [this](fabric::Block block) { on_block_emitted(std::move(block)); });

  net::GossipNetwork::Config gossip = config_.gossip;
  gossip.seed = config_.seed ^ 0x905517ull;
  gossip_ = std::make_unique<net::GossipNetwork>(sim_, peer_count(), gossip);
  gossip_->set_payload_callback(
      [this](int peer, std::uint64_t block_num, const Bytes& payload) {
        on_payload(peer, block_num, payload);
      });

  if (!config_.data_dir.empty())
    std::filesystem::create_directories(config_.data_dir);
  for (int i = 0; i < peer_count(); ++i) {
    auto peer =
        std::make_unique<Peer>(i, harness_->msp(), harness_->policies());
    if (!config_.data_dir.empty()) {
      remove_peer_files(i);  // a fresh deployment never resumes stale logs
      fabric::DurabilityConfig durability;
      durability.ledger_path = peer_log_path(i);
      durability.snapshot_interval = config_.snapshot_interval;
      peer->durable = std::make_unique<fabric::DurableLedger>(durability);
    }
    peers_.push_back(std::move(peer));
  }
}

ClusterDeployment::~ClusterDeployment() = default;

std::string ClusterDeployment::peer_log_path(int peer) const {
  return config_.data_dir + "/peer" + std::to_string(peer) + ".log";
}

void ClusterDeployment::remove_peer_files(int peer) {
  fabric::DurabilityConfig durability;
  durability.ledger_path = peer_log_path(peer);
  fabric::DurableLedger::remove_files(durability);
  std::error_code ec;
  std::filesystem::remove(config_.data_dir + "/transfer.peer" +
                              std::to_string(peer) + ".snap",
                          ec);
}

void ClusterDeployment::start() {
  if (started_) return;
  started_ = true;
  ordering_->start();
  gossip_->start_anti_entropy();
}

void ClusterDeployment::submit_one() {
  // Like a Fabric client: nothing to send to while there is no leader —
  // retry next tick. Skipping prepare_tx keeps the endorsement rng aligned
  // with the envelopes that actually entered the system.
  if (ordering_->leader() < 0) return;
  const workload::TxDraft draft = harness_->prepare_tx();
  ordering_->submit(harness_->sign_envelope(draft));
}

bool ClusterDeployment::run_until_blocks(std::uint64_t target,
                                         sim::Time deadline) {
  start();
  while (ordering_->blocks_emitted() < target && sim_.now() < deadline) {
    submit_one();
    sim_.run_until(sim_.now() + config_.submit_interval);
  }
  return ordering_->blocks_emitted() >= target;
}

void ClusterDeployment::settle(sim::Time duration) {
  start();
  sim_.run_until(sim_.now() + duration);
}

void ClusterDeployment::on_block_emitted(fabric::Block block) {
  emission_times_.push_back(sim_.now());
  const std::uint64_t number = block.header.number;
  Bytes payload = block.marshal();
  // Reference pipeline first (in emission order): peers later compare their
  // own commit hash against this block's reference result.
  harness_->commit_block(block);
  // The ordering service delivers to each org's lead peer, which injects
  // the marshaled bytes into the mesh (§2.2's Gossip dissemination).
  for (int org = 0; org < config_.orgs; ++org) {
    const int lead = org * config_.peers_per_org;
    sim_.schedule(config_.delivery_delay, [this, lead, number, payload] {
      gossip_->publish(lead, number, payload);
    });
  }
}

void ClusterDeployment::on_payload(int peer, std::uint64_t block_num,
                                   const Bytes& payload) {
  Peer& state = *peers_[static_cast<std::size_t>(peer)];
  if (!state.online) return;
  if (block_num < state.ledger.height()) return;  // already committed
  state.pending.emplace(block_num, payload);
  drain(state);
}

void ClusterDeployment::drain(Peer& peer) {
  while (peer.online) {
    if (sim_.now() < peer.apply_after) {
      // State transfer still occupies the peer's link; re-drain when done.
      const int id = peer.id;
      sim_.schedule(peer.apply_after - sim_.now(), [this, id] {
        drain(*peers_[static_cast<std::size_t>(id)]);
      });
      return;
    }
    const std::uint64_t next = peer.ledger.height();
    peer.pending.erase(peer.pending.begin(), peer.pending.lower_bound(next));
    const auto it = peer.pending.find(next);
    if (it == peer.pending.end()) return;
    const std::optional<fabric::Block> block =
        fabric::Block::unmarshal(it->second);
    if (!block) {
      if (divergence_.empty())
        divergence_ = "peer " + std::to_string(peer.id) + ": block " +
                      std::to_string(next) + " failed to unmarshal";
      peer.pending.erase(it);
      continue;
    }
    const fabric::BlockValidationResult result =
        peer.validator.validate_and_commit(*block, peer.db, peer.ledger);
    ++blocks_validated_;
    const fabric::BlockValidationResult& reference =
        harness_->reference_result(next);
    if (result.commit_hash != reference.commit_hash && divergence_.empty())
      divergence_ = "peer " + std::to_string(peer.id) + ": block " +
                    std::to_string(next) + " commit hash " +
                    hex_encode(crypto::digest_view(result.commit_hash)) +
                    " != reference " +
                    hex_encode(crypto::digest_view(reference.commit_hash));
    if (peer.durable) peer.durable->on_commit(peer.ledger, peer.db);
    peer.pending.erase(it);
  }
}

void ClusterDeployment::crash_peer(int peer) {
  Peer& state = *peers_[static_cast<std::size_t>(peer)];
  state.online = false;
  gossip_->set_peer_online(peer, false);
  gossip_->reset_peer(peer);
  state.pending.clear();
  state.apply_after = 0;
  state.db.clear();
  state.ledger = fabric::Ledger{};
  state.durable.reset();     // the crash takes the local disk with it
  if (!config_.data_dir.empty()) remove_peer_files(peer);
}

void ClusterDeployment::restart_peer(int peer) {
  Peer& state = *peers_[static_cast<std::size_t>(peer)];
  state.online = true;
  gossip_->set_peer_online(peer, true);

  const std::uint64_t tip = harness_->reference_ledger().height();
  const std::uint64_t gap = tip - state.ledger.height();
  if (config_.data_dir.empty() || gap < config_.catch_up_threshold) return;
  const Peer* source = pick_source(peer);
  if (source == nullptr) return;  // gossip anti-entropy is the fallback

  const TransferSource view{&source->ledger, &source->db,
                            source->durable.get()};
  TransferResult result =
      transfer_state(view, config_.data_dir, peer, state.ledger, state.db);
  last_transfer_ = result;
  if (!result.ok) {
    state.ledger = fabric::Ledger{};
    state.db.clear();
    return;
  }
  ++state_transfers_;
  transfer_bytes_ += result.bytes;
  catch_up_blocks_ += result.height;
  // The fetched bytes occupy the peer's link before gossip deliveries may
  // apply; gossip itself already knows everything the transfer carried.
  const double seconds = static_cast<double>(result.bytes) * 8.0 /
                         (config_.transfer_gbps * 1e9);
  state.apply_after = sim_.now() + config_.transfer_rtt +
                      static_cast<sim::Time>(seconds * sim::kSecond);
  for (std::uint64_t n = 0; n < state.ledger.height(); ++n)
    gossip_->mark_known(peer, n);
  const sim::Time wait = state.apply_after - sim_.now();
  sim_.schedule(wait, [this, peer] {
    drain(*peers_[static_cast<std::size_t>(peer)]);
  });
}

const ClusterDeployment::Peer* ClusterDeployment::pick_source(
    int exclude) const {
  const Peer* best = nullptr;
  for (const auto& peer : peers_) {
    if (peer->id == exclude || !peer->online || peer->ledger.height() == 0)
      continue;
    if (best == nullptr || peer->ledger.height() > best->ledger.height() ||
        (peer->ledger.height() == best->ledger.height() &&
         best->durable == nullptr && peer->durable != nullptr))
      best = peer.get();
  }
  return best;
}

bool ClusterDeployment::peer_online(int peer) const {
  return peers_.at(static_cast<std::size_t>(peer))->online;
}

std::uint64_t ClusterDeployment::peer_height(int peer) const {
  return peers_.at(static_cast<std::size_t>(peer))->ledger.height();
}

const fabric::Ledger& ClusterDeployment::peer_ledger(int peer) const {
  return peers_.at(static_cast<std::size_t>(peer))->ledger;
}

bool ClusterDeployment::converged() const {
  if (!divergence_.empty()) return false;
  const fabric::Ledger& reference = harness_->reference_ledger();
  for (const auto& peer : peers_) {
    if (!peer->online) continue;
    // The tail commit hash chains over everything, including a snapshot
    // prefix the peer does not hold block-by-block.
    if (peer->ledger.height() != reference.height() ||
        !fabric::chain_divergence(peer->ledger, reference).empty())
      return false;
  }
  return true;
}

void ClusterDeployment::publish_metrics(obs::Registry& registry,
                                        const std::string& prefix) const {
  registry
      .counter(prefix + "_blocks_emitted_total",
               "blocks emitted by the ordering cluster")
      .set(ordering_->blocks_emitted());
  registry
      .counter(prefix + "_blocks_validated_total",
               "peer validate-and-commit executions")
      .set(blocks_validated_);
  registry
      .counter(prefix + "_duplicates_suppressed_total",
               "re-cut blocks suppressed by the canonical chain")
      .set(ordering_->duplicates_suppressed());
  registry
      .counter(prefix + "_forks_detected_total",
               "emission-chain forks (must stay 0)")
      .set(ordering_->forks_detected());
  registry
      .counter(prefix + "_state_transfers_total",
               "peer catch-ups served by snapshot transfer")
      .set(state_transfers_);
  registry
      .counter(prefix + "_transfer_bytes_total",
               "snapshot + log-tail bytes shipped by state transfer")
      .set(transfer_bytes_);
  registry
      .counter(prefix + "_catch_up_blocks_total",
               "blocks recovered via state transfer instead of gossip")
      .set(catch_up_blocks_);
  registry.gauge(prefix + "_peers", "peers in the deployment")
      .set(static_cast<double>(peer_count()));
  int online = 0;
  std::uint64_t min_height = harness_->reference_ledger().height();
  for (const auto& peer : peers_) {
    if (!peer->online) continue;
    ++online;
    min_height = std::min(min_height, peer->ledger.height());
  }
  registry.gauge(prefix + "_peers_online", "peers currently online")
      .set(static_cast<double>(online));
  registry
      .gauge(prefix + "_reference_height",
             "reference pipeline chain height")
      .set(static_cast<double>(harness_->reference_ledger().height()));
  registry
      .gauge(prefix + "_min_peer_height",
             "chain height of the furthest-behind online peer")
      .set(static_cast<double>(min_height));
}

}  // namespace bm::cluster
