// Raft consensus for the ordering service (§2.1 lists Raft as Fabric's
// production consensus; §3.5: "Only the lead orderer in a multi-node Raft
// ordering service sends the block through our protocol").
//
// A compact but real Raft (Ongaro & Ousterhout): randomized election
// timeouts, terms, RequestVote / AppendEntries with log-consistency checks,
// majority commit, and leader heartbeats — running on the discrete-event
// simulator with configurable message delay, jitter and loss. The
// replicated log carries opaque payloads (marshaled transaction envelopes);
// the RaftOrderingService layers Fabric's block cutter on top and lets the
// current leader cut and sign blocks.
#pragma once

#include <deque>
#include <functional>
#include <variant>

#include "common/rng.hpp"
#include "fabric/orderer.hpp"
#include "net/faults.hpp"
#include "sim/simulation.hpp"

namespace bm::fabric {

struct RaftLogEntry {
  std::uint64_t term = 0;
  Bytes payload;
};

struct RequestVote {
  std::uint64_t term = 0;
  int candidate = -1;
  std::uint64_t last_log_index = 0;  ///< 1-based; 0 = empty log
  std::uint64_t last_log_term = 0;
};

struct RequestVoteReply {
  std::uint64_t term = 0;
  bool granted = false;
  int voter = -1;
};

struct AppendEntries {
  std::uint64_t term = 0;
  int leader = -1;
  std::uint64_t prev_log_index = 0;
  std::uint64_t prev_log_term = 0;
  std::vector<RaftLogEntry> entries;
  std::uint64_t leader_commit = 0;
};

struct AppendEntriesReply {
  std::uint64_t term = 0;
  bool success = false;
  int follower = -1;
  std::uint64_t match_index = 0;
};

using RaftMessage = std::variant<RequestVote, RequestVoteReply, AppendEntries,
                                 AppendEntriesReply>;

/// Transport callback: deliver `message` from node `from` to node `to`
/// (the cluster schedules it onto the simulated network).
using RaftSendFn = std::function<void(int from, int to, RaftMessage message)>;

enum class RaftRole { kFollower, kCandidate, kLeader };

class RaftNode {
 public:
  struct Config {
    sim::Time election_timeout_min = 150 * sim::kMillisecond;
    sim::Time election_timeout_max = 300 * sim::kMillisecond;
    sim::Time heartbeat_interval = 50 * sim::kMillisecond;
    std::size_t max_entries_per_append = 16;
  };

  RaftNode(sim::Simulation& sim, int id, int cluster_size, Config config,
           RaftSendFn send, std::uint64_t seed);

  /// Arm the initial election timer.
  void start();

  /// Take the node offline (crash) / back online (recover as follower).
  void stop();
  void restart();
  bool running() const { return running_; }

  /// Leader-only: append a payload to the replicated log. Returns false if
  /// this node is not the leader.
  bool propose(Bytes payload);

  void on_message(int from, RaftMessage message);

  /// Callback fired, in order, for every newly committed entry.
  void set_commit_callback(std::function<void(const RaftLogEntry&)> cb) {
    on_commit_ = std::move(cb);
  }

  /// Callback fired whenever this node wins an election (it may fire more
  /// than once across its lifetime). The ordering service uses it to emit
  /// the cut-but-unsent backlog after a leader change.
  void set_leader_callback(std::function<void()> cb) {
    on_leader_ = std::move(cb);
  }

  int id() const { return id_; }
  RaftRole role() const { return role_; }
  std::uint64_t term() const { return current_term_; }
  std::uint64_t commit_index() const { return commit_index_; }
  std::uint64_t log_size() const { return log_.size(); }
  const RaftLogEntry& log_at(std::uint64_t index_1based) const {
    return log_.at(index_1based - 1);
  }

 private:
  void become_follower(std::uint64_t term);
  void become_candidate();
  void become_leader();
  void reset_election_timer();
  void cancel_election_timer();
  void send_heartbeats();
  void replicate_to(int peer);
  void advance_commit_index();
  void apply_committed();

  std::uint64_t last_log_index() const { return log_.size(); }
  std::uint64_t last_log_term() const {
    return log_.empty() ? 0 : log_.back().term;
  }

  void handle(const RequestVote& msg, int from);
  void handle(const RequestVoteReply& msg);
  void handle(const AppendEntries& msg, int from);
  void handle(const AppendEntriesReply& msg);

  sim::Simulation& sim_;
  int id_;
  int cluster_size_;
  Config config_;
  RaftSendFn send_;
  Rng rng_;
  bool running_ = false;

  // Persistent state.
  std::uint64_t current_term_ = 0;
  int voted_for_ = -1;
  std::vector<RaftLogEntry> log_;  ///< log_[i] has 1-based index i+1

  // Volatile state.
  RaftRole role_ = RaftRole::kFollower;
  std::uint64_t commit_index_ = 0;
  std::uint64_t last_applied_ = 0;
  int votes_received_ = 0;

  // Leader state.
  std::vector<std::uint64_t> next_index_;
  std::vector<std::uint64_t> match_index_;

  sim::EventId election_timer_ = 0;
  bool election_timer_armed_ = false;
  sim::EventId heartbeat_timer_ = 0;
  bool heartbeat_timer_armed_ = false;

  std::function<void(const RaftLogEntry&)> on_commit_;
  std::function<void()> on_leader_;
};

/// A Raft cluster wired over a simulated network, layered with Fabric's
/// block cutter: committed envelopes flow through each node's cutter, and
/// the current leader signs and emits the resulting blocks.
///
/// Emission is leader-change safe: every node's cutter consumes the same
/// committed log, so block *headers* are deterministic, but only one byte
/// version (one signer) may ever enter dissemination. The service keeps a
/// canonical emitted chain and dedupes by (block_number, prev_hash): a block
/// number already emitted is suppressed (its header must match the emitted
/// one — forks_detected() counts violations, and a forking block is never
/// emitted), and a freshly elected leader first emits the backlog of blocks
/// the dead leader cut but never sent, so the stream neither forks nor
/// skips numbers across re-elections.
class RaftOrderingService {
 public:
  struct Config {
    int nodes = 3;
    std::size_t max_tx_per_block = 100;
    sim::Time message_delay = 500 * sim::kMicrosecond;
    sim::Time message_jitter = 200 * sim::kMicrosecond;
    /// Transport-level fault schedule (Gilbert–Elliott burst loss, extra
    /// delay) applied to every node-to-node message, on its own RNG stream:
    /// enabling it never reshuffles the jitter draws. Uniform i.i.d. loss is
    /// FaultConfig::uniform_loss(p, seed).
    net::FaultConfig faults;
    RaftNode::Config raft;
    std::uint64_t seed = 1;
  };

  /// `identities` holds one orderer identity per node (all sign blocks; the
  /// paper's setup verifies whichever orderer signed).
  RaftOrderingService(sim::Simulation& sim, Config config,
                      std::vector<Identity> identities);

  void start();

  /// Submit an envelope to the current leader (fails silently if there is
  /// no leader yet — callers retry, like Fabric clients do).
  bool submit(Bytes envelope);

  /// Blocks emitted by the lead orderer, in order.
  using BlockCallback = std::function<void(Block)>;
  void set_block_callback(BlockCallback cb) { on_block_ = std::move(cb); }

  int leader() const;  ///< -1 if no leader currently known
  RaftNode& node(int id) { return *nodes_[static_cast<std::size_t>(id)]; }
  std::size_t node_count() const { return nodes_.size(); }

  /// Crash / recover a node (for failover tests).
  void stop_node(int id);
  void restart_node(int id);

  /// Schedule a network partition: while sim time is in [start, end), any
  /// message between a node in `minority` and one outside it is dropped.
  /// A leader caught on the minority side loses quorum and must step down
  /// when the healed majority's higher term reaches it.
  void add_partition(sim::Time start, sim::Time end, std::vector<int> minority);

  std::uint64_t blocks_emitted() const { return blocks_emitted_; }
  /// Cut blocks whose number was already emitted (stale or duplicate
  /// leaders re-cutting the same committed prefix) — suppressed, not sent.
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  /// Suppressed blocks whose header did not match the canonical chain at
  /// that number. Raft safety makes this impossible; must stay 0.
  std::uint64_t forks_detected() const { return forks_detected_; }
  std::uint64_t partition_drops() const { return partition_drops_; }
  /// Transport fault counters when Config::faults is active (null otherwise).
  const net::FaultStats* fault_stats() const {
    return faults_ ? &faults_->stats() : nullptr;
  }

 private:
  struct PartitionWindow {
    sim::Time start = 0;
    sim::Time end = 0;
    std::vector<int> minority;
  };

  void deliver(int from, int to, RaftMessage message);
  bool partitioned(int from, int to) const;
  void on_committed(int node_id, const RaftLogEntry& entry);
  void enqueue_cut(int node_id, Block block);
  void maybe_emit(int node_id);

  sim::Simulation& sim_;
  Config config_;
  Rng net_rng_;
  std::unique_ptr<net::FaultInjector> faults_;  ///< null without Config::faults
  std::vector<PartitionWindow> partitions_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::vector<std::unique_ptr<Orderer>> cutters_;  ///< one per node
  /// Per node: blocks its cutter cut that the canonical chain has not
  /// consumed yet (a follower's copies wait here until it either becomes
  /// leader or the numbers are emitted elsewhere and they drop as dupes).
  std::vector<std::deque<Block>> cut_backlog_;
  /// Canonical emitted chain: header hash per emitted block number. The
  /// next emission must carry number emitted_hashes_.size() and a prev_hash
  /// equal to the last entry.
  std::vector<crypto::Digest> emitted_hashes_;
  BlockCallback on_block_;
  std::uint64_t blocks_emitted_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t forks_detected_ = 0;
  std::uint64_t partition_drops_ = 0;
};

}  // namespace bm::fabric
