#include "fabric/raft.hpp"

#include <algorithm>
#include <cassert>

namespace bm::fabric {

RaftNode::RaftNode(sim::Simulation& sim, int id, int cluster_size,
                   Config config, RaftSendFn send, std::uint64_t seed)
    : sim_(sim),
      id_(id),
      cluster_size_(cluster_size),
      config_(config),
      send_(std::move(send)),
      rng_(seed),
      next_index_(static_cast<std::size_t>(cluster_size), 1),
      match_index_(static_cast<std::size_t>(cluster_size), 0) {}

void RaftNode::start() {
  running_ = true;
  reset_election_timer();
}

void RaftNode::stop() {
  running_ = false;
  cancel_election_timer();
  if (heartbeat_timer_armed_) {
    sim_.cancel(heartbeat_timer_);
    heartbeat_timer_armed_ = false;
  }
}

void RaftNode::restart() {
  // Persistent state (term, vote, log) survives; volatile state resets.
  role_ = RaftRole::kFollower;
  votes_received_ = 0;
  start();
}

void RaftNode::reset_election_timer() {
  cancel_election_timer();
  const auto span = static_cast<std::uint64_t>(
      config_.election_timeout_max - config_.election_timeout_min);
  const sim::Time timeout =
      config_.election_timeout_min +
      static_cast<sim::Time>(span == 0 ? 0 : rng_.uniform(span));
  election_timer_armed_ = true;
  election_timer_ = sim_.schedule(timeout, [this] {
    election_timer_armed_ = false;
    if (running_ && role_ != RaftRole::kLeader) become_candidate();
  });
}

void RaftNode::cancel_election_timer() {
  if (election_timer_armed_) {
    sim_.cancel(election_timer_);
    election_timer_armed_ = false;
  }
}

void RaftNode::become_follower(std::uint64_t term) {
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = -1;
  }
  role_ = RaftRole::kFollower;
  votes_received_ = 0;
  if (heartbeat_timer_armed_) {
    sim_.cancel(heartbeat_timer_);
    heartbeat_timer_armed_ = false;
  }
  reset_election_timer();
}

void RaftNode::become_candidate() {
  ++current_term_;
  role_ = RaftRole::kCandidate;
  voted_for_ = id_;
  votes_received_ = 1;  // own vote
  reset_election_timer();

  RequestVote request;
  request.term = current_term_;
  request.candidate = id_;
  request.last_log_index = last_log_index();
  request.last_log_term = last_log_term();
  for (int peer = 0; peer < cluster_size_; ++peer)
    if (peer != id_) send_(id_, peer, request);

  if (cluster_size_ == 1) become_leader();
}

void RaftNode::become_leader() {
  role_ = RaftRole::kLeader;
  cancel_election_timer();
  for (int peer = 0; peer < cluster_size_; ++peer) {
    next_index_[static_cast<std::size_t>(peer)] = last_log_index() + 1;
    match_index_[static_cast<std::size_t>(peer)] = 0;
  }
  match_index_[static_cast<std::size_t>(id_)] = last_log_index();
  send_heartbeats();
  if (on_leader_) on_leader_();
}

void RaftNode::send_heartbeats() {
  if (!running_ || role_ != RaftRole::kLeader) return;
  for (int peer = 0; peer < cluster_size_; ++peer)
    if (peer != id_) replicate_to(peer);
  heartbeat_timer_armed_ = true;
  heartbeat_timer_ = sim_.schedule(config_.heartbeat_interval, [this] {
    heartbeat_timer_armed_ = false;
    send_heartbeats();
  });
}

void RaftNode::replicate_to(int peer) {
  const auto peer_index = static_cast<std::size_t>(peer);
  AppendEntries append;
  append.term = current_term_;
  append.leader = id_;
  append.prev_log_index = next_index_[peer_index] - 1;
  append.prev_log_term =
      append.prev_log_index == 0
          ? 0
          : log_[append.prev_log_index - 1].term;
  const std::uint64_t from = next_index_[peer_index];
  const std::uint64_t to =
      std::min<std::uint64_t>(last_log_index(),
                              from + config_.max_entries_per_append - 1);
  for (std::uint64_t i = from; i <= to; ++i)
    append.entries.push_back(log_[i - 1]);
  append.leader_commit = commit_index_;
  send_(id_, peer, std::move(append));
}

bool RaftNode::propose(Bytes payload) {
  if (!running_ || role_ != RaftRole::kLeader) return false;
  log_.push_back(RaftLogEntry{current_term_, std::move(payload)});
  match_index_[static_cast<std::size_t>(id_)] = last_log_index();
  for (int peer = 0; peer < cluster_size_; ++peer)
    if (peer != id_) replicate_to(peer);
  if (cluster_size_ == 1) {
    advance_commit_index();
  }
  return true;
}

void RaftNode::on_message(int from, RaftMessage message) {
  if (!running_) return;  // crashed nodes drop traffic
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, RequestVote>) handle(msg, from);
        else if constexpr (std::is_same_v<T, RequestVoteReply>) handle(msg);
        else if constexpr (std::is_same_v<T, AppendEntries>) handle(msg, from);
        else handle(msg);
      },
      message);
}

void RaftNode::handle(const RequestVote& msg, int from) {
  if (msg.term > current_term_) become_follower(msg.term);

  RequestVoteReply reply;
  reply.term = current_term_;
  reply.voter = id_;
  // §5.4.1 election restriction: candidate's log must be at least as
  // up-to-date as ours.
  const bool log_ok =
      msg.last_log_term > last_log_term() ||
      (msg.last_log_term == last_log_term() &&
       msg.last_log_index >= last_log_index());
  if (msg.term == current_term_ &&
      (voted_for_ == -1 || voted_for_ == msg.candidate) && log_ok) {
    voted_for_ = msg.candidate;
    reply.granted = true;
    reset_election_timer();
  }
  send_(id_, from, reply);
}

void RaftNode::handle(const RequestVoteReply& msg) {
  if (msg.term > current_term_) {
    become_follower(msg.term);
    return;
  }
  if (role_ != RaftRole::kCandidate || msg.term != current_term_ ||
      !msg.granted)
    return;
  if (++votes_received_ > cluster_size_ / 2) become_leader();
}

void RaftNode::handle(const AppendEntries& msg, int from) {
  AppendEntriesReply reply;
  reply.follower = id_;

  if (msg.term < current_term_) {
    reply.term = current_term_;
    reply.success = false;
    send_(id_, from, reply);
    return;
  }
  become_follower(msg.term);  // also resets the election timer
  reply.term = current_term_;

  // Log consistency check.
  if (msg.prev_log_index > last_log_index() ||
      (msg.prev_log_index > 0 &&
       log_[msg.prev_log_index - 1].term != msg.prev_log_term)) {
    reply.success = false;
    send_(id_, from, reply);
    return;
  }

  // Append, truncating any conflicting suffix.
  std::uint64_t index = msg.prev_log_index;
  for (const RaftLogEntry& entry : msg.entries) {
    ++index;
    if (index <= last_log_index()) {
      if (log_[index - 1].term == entry.term) continue;
      log_.resize(index - 1);  // conflict: truncate
    }
    log_.push_back(entry);
  }

  if (msg.leader_commit > commit_index_) {
    commit_index_ = std::min(msg.leader_commit, last_log_index());
    apply_committed();
  }
  reply.success = true;
  reply.match_index = index;
  send_(id_, from, reply);
}

void RaftNode::handle(const AppendEntriesReply& msg) {
  if (msg.term > current_term_) {
    become_follower(msg.term);
    return;
  }
  if (role_ != RaftRole::kLeader || msg.term != current_term_) return;
  const auto peer = static_cast<std::size_t>(msg.follower);
  if (msg.success) {
    match_index_[peer] = std::max(match_index_[peer], msg.match_index);
    next_index_[peer] = match_index_[peer] + 1;
    advance_commit_index();
    // More to replicate?
    if (next_index_[peer] <= last_log_index()) replicate_to(msg.follower);
  } else {
    // Back up and retry (linear backoff suffices at this scale).
    if (next_index_[peer] > 1) --next_index_[peer];
    replicate_to(msg.follower);
  }
}

void RaftNode::advance_commit_index() {
  // Find the highest index replicated on a majority, restricted to the
  // current term (§5.4.2).
  for (std::uint64_t n = last_log_index(); n > commit_index_; --n) {
    if (log_[n - 1].term != current_term_) break;
    int count = 0;
    for (int peer = 0; peer < cluster_size_; ++peer)
      if (match_index_[static_cast<std::size_t>(peer)] >= n) ++count;
    if (count > cluster_size_ / 2) {
      commit_index_ = n;
      apply_committed();
      break;
    }
  }
}

void RaftNode::apply_committed() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (on_commit_) on_commit_(log_[last_applied_ - 1]);
  }
}

// ---------------------------------------------------------------------------

RaftOrderingService::RaftOrderingService(sim::Simulation& sim, Config config,
                                         std::vector<Identity> identities)
    : sim_(sim),
      config_(config),
      net_rng_(config.seed ^ 0xfeed),
      cut_backlog_(static_cast<std::size_t>(config.nodes)) {
  assert(static_cast<int>(identities.size()) == config_.nodes);
  if (config_.faults.any())
    faults_ = std::make_unique<net::FaultInjector>(config_.faults);
  for (int i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<RaftNode>(
        sim_, i, config_.nodes, config_.raft,
        [this](int from, int to, RaftMessage message) {
          deliver(from, to, std::move(message));
        },
        config_.seed + static_cast<std::uint64_t>(i)));
    cutters_.push_back(std::make_unique<Orderer>(
        identities[static_cast<std::size_t>(i)],
        Orderer::Config{config_.max_tx_per_block}));
    const int node_id = i;
    nodes_.back()->set_commit_callback(
        [this, node_id](const RaftLogEntry& entry) {
          on_committed(node_id, entry);
        });
    // A new leader first drains the backlog the dead leader cut but never
    // emitted, so the block stream cannot skip numbers across elections.
    nodes_.back()->set_leader_callback(
        [this, node_id] { maybe_emit(node_id); });
  }
}

void RaftOrderingService::start() {
  for (auto& node : nodes_) node->start();
}

bool RaftOrderingService::partitioned(int from, int to) const {
  const sim::Time now = sim_.now();
  for (const PartitionWindow& window : partitions_) {
    if (now < window.start || now >= window.end) continue;
    bool from_minority = false, to_minority = false;
    for (const int node : window.minority) {
      from_minority |= node == from;
      to_minority |= node == to;
    }
    if (from_minority != to_minority) return true;
  }
  return false;
}

void RaftOrderingService::add_partition(sim::Time start, sim::Time end,
                                        std::vector<int> minority) {
  partitions_.push_back(PartitionWindow{start, end, std::move(minority)});
}

void RaftOrderingService::deliver(int from, int to, RaftMessage message) {
  if (partitioned(from, to)) {
    ++partition_drops_;
    return;
  }
  sim::Time fault_delay = 0;
  if (faults_ != nullptr) {
    // Charge the injector a frame proportional to the message's payload, so
    // burst-loss state machines see realistic traffic.
    std::size_t frame_size = 64;
    if (const auto* append = std::get_if<AppendEntries>(&message))
      for (const RaftLogEntry& entry : append->entries)
        frame_size += 32 + entry.payload.size();
    const auto verdict = faults_->assess(sim_.now(), frame_size);
    if (verdict.dropped()) return;
    fault_delay = verdict.extra_delay;
  }
  sim::Time delay = config_.message_delay + fault_delay;
  if (config_.message_jitter > 0)
    delay += static_cast<sim::Time>(
        net_rng_.uniform(static_cast<std::uint64_t>(config_.message_jitter)));
  sim_.schedule(delay, [this, from, to, message = std::move(message)] {
    nodes_[static_cast<std::size_t>(to)]->on_message(from, message);
  });
}

int RaftOrderingService::leader() const {
  for (const auto& node : nodes_)
    if (node->running() && node->role() == RaftRole::kLeader)
      return node->id();
  return -1;
}

bool RaftOrderingService::submit(Bytes envelope) {
  const int lead = leader();
  if (lead < 0) return false;
  return nodes_[static_cast<std::size_t>(lead)]->propose(std::move(envelope));
}

void RaftOrderingService::stop_node(int id) {
  nodes_[static_cast<std::size_t>(id)]->stop();
}

void RaftOrderingService::restart_node(int id) {
  nodes_[static_cast<std::size_t>(id)]->restart();
}

void RaftOrderingService::on_committed(int node_id, const RaftLogEntry& entry) {
  // Every node's block cutter consumes the identical committed sequence, so
  // block headers are deterministic; only the lead orderer emits (signs and
  // sends) the block — §3.5. Emission goes through the canonical chain so a
  // leader change mid-stream can neither fork nor skip block numbers.
  auto& cutter = *cutters_[static_cast<std::size_t>(node_id)];
  auto block = cutter.submit(entry.payload);
  if (block) enqueue_cut(node_id, std::move(*block));
  maybe_emit(node_id);
}

void RaftOrderingService::enqueue_cut(int node_id, Block block) {
  cut_backlog_[static_cast<std::size_t>(node_id)].push_back(std::move(block));
}

void RaftOrderingService::maybe_emit(int node_id) {
  auto& backlog = cut_backlog_[static_cast<std::size_t>(node_id)];
  RaftNode& node = *nodes_[static_cast<std::size_t>(node_id)];
  for (;;) {
    // Numbers the canonical chain already emitted are duplicates (another
    // signer's copy won the race): verify the header matches and drop them,
    // whatever this node's role — that is the (block_number, prev_hash)
    // dedupe, and it also bounds follower backlog memory.
    while (!backlog.empty() &&
           backlog.front().header.number < emitted_hashes_.size()) {
      const Block& duplicate = backlog.front();
      if (duplicate.block_hash() !=
          emitted_hashes_[duplicate.header.number])
        ++forks_detected_;
      ++duplicates_suppressed_;
      backlog.pop_front();
    }
    if (!node.running() || node.role() != RaftRole::kLeader ||
        backlog.empty() ||
        backlog.front().header.number != emitted_hashes_.size())
      return;

    Block block = std::move(backlog.front());
    backlog.pop_front();
    // prev_hash must chain onto the canonical tail (empty at genesis). Raft
    // safety makes a mismatch impossible; refuse to fork the stream anyway.
    const bool chains =
        emitted_hashes_.empty()
            ? block.header.prev_hash.empty()
            : std::equal(block.header.prev_hash.begin(),
                         block.header.prev_hash.end(),
                         emitted_hashes_.back().begin(),
                         emitted_hashes_.back().end());
    if (!chains) {
      ++forks_detected_;
      return;
    }
    emitted_hashes_.push_back(block.block_hash());
    ++blocks_emitted_;
    if (on_block_) on_block_(std::move(block));
  }
}

}  // namespace bm::fabric
