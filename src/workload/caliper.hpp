// Caliper-style measurement (§4.1): the paper instruments the peer to log
// timestamps through the validation phase and has Hyperledger Caliper
// gather them into block-level statistics. This reporter ingests the same
// events — block received, validated, committed, with transaction counts —
// and produces the windowed throughput/latency report Caliper prints.
#pragma once

#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "workload/metrics.hpp"

namespace bm::workload {

struct BlockObservation {
  std::uint64_t block_num = 0;
  std::uint32_t tx_count = 0;
  std::uint32_t valid_tx_count = 0;
  sim::Time received_at = 0;
  sim::Time validated_at = 0;
  sim::Time committed_at = 0;
};

class CaliperReport {
 public:
  explicit CaliperReport(std::string peer_name) : peer_(std::move(peer_name)) {}

  void record(const BlockObservation& observation);

  std::size_t blocks() const { return observations_.size(); }
  std::uint64_t total_txs() const { return total_txs_; }
  std::uint64_t valid_txs() const { return valid_txs_; }

  /// Commit throughput over the whole run (first receive -> last commit).
  double overall_tps() const;

  /// Block validation latency summary (validated - received), in ms.
  Summary validation_latency_ms() const;

  /// Per-window throughput series (tps per `window` of simulated time) —
  /// what Caliper's round reports plot.
  std::vector<double> windowed_tps(sim::Time window) const;

  /// Render the full report as text.
  std::string render(sim::Time window = 100 * sim::kMillisecond) const;

 private:
  std::string peer_;
  std::vector<BlockObservation> observations_;
  std::uint64_t total_txs_ = 0;
  std::uint64_t valid_txs_ = 0;
};

}  // namespace bm::workload
