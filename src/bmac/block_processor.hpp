// block_processor: the integrated block-level and transaction-level
// validation pipeline (§3.3, Fig. 4), as a discrete-event model.
//
// Structure (all stages are coroutine processes over bounded FIFOs):
//
//   block_fifo -> [block_verify] -> ctl -> [tx_scheduler] ---> validator 0..V-1
//                 (1 ecdsa_engine)            |                [tx_verify ->
//   tx_fifo   --------------------------------+                 tx_vscc(E engines,
//   ends_fifo --------------------------------+                 ends_scheduler +
//                                                               policy circuit)]
//   rdset_fifo / wrset_fifo -> [tx_mvcc_commit] <- [tx_collector (in order)]
//                                   |-> res_fifo -> [reg_map]
//
// Fidelity points from the paper:
//  - dedicated ecdsa_engine for block_verify and per-validator tx_verify;
//  - configurable V tx_validators each with E ecdsa_engines in tx_vscc;
//  - ends_scheduler short-circuits: it re-evaluates the compiled policy
//    circuit after every verification round and drops the remaining
//    endorsements once the policy is satisfied (Fig. 7e's 2of3 win);
//  - tx_verify skips engine work for transactions already invalid;
//  - tx_collector restores program order before the sequential mvcc stage;
//  - tx_mvcc_commit combines mvcc and state-db commit in one stage and
//    consumes (drains) read/write-set entries even for invalid transactions;
//  - reg_map blocks new results until the host has read the previous one;
//  - block_monitor counters (per-block timing, engine utilization).
#pragma once

#include <map>

#include "bmac/hw_kvstore.hpp"
#include "bmac/hw_timing.hpp"
#include "bmac/policy_circuit.hpp"
#include "bmac/records.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fifo.hpp"

namespace bm::bmac {

struct HwConfig {
  int tx_validators = 8;        ///< V: parallel tx_verify+tx_vscc instances
  int engines_per_vscc = 2;     ///< E: ecdsa_engines per tx_vscc
  std::size_t max_block_txs = 256;
  std::size_t db_capacity = 8192;
  /// Ablation knob: when false, the ends_scheduler verifies every
  /// endorsement like the Fabric software does, instead of stopping once
  /// the policy circuit is satisfied (§3.3's short-circuit evaluation).
  bool short_circuit_vscc = true;
  HwTimingModel timing;

  std::string name() const {
    return std::to_string(tx_validators) + "x" +
           std::to_string(engines_per_vscc);
  }
};

/// Aggregate counters kept by the block_monitor.
struct MonitorStats {
  std::uint64_t blocks = 0;
  std::uint64_t transactions = 0;
  std::uint64_t valid_transactions = 0;
  std::uint64_t ecdsa_executed = 0;
  std::uint64_t ecdsa_skipped = 0;  ///< short-circuit + invalid-skip wins
  sim::Time total_block_latency = 0;  ///< sum of (validate_end - received_at)
};

class BlockProcessor {
 public:
  BlockProcessor(sim::Simulation& sim, HwConfig config,
                 std::map<std::string, PolicyCircuit> policies);

  /// Spawn all pipeline processes. Call once before Simulation::run().
  void start();

  /// Attach observability sinks (either may be null). Call before start():
  /// registers the pipeline's latency histograms, creates one trace lane
  /// per stage and per FIFO, and hooks the FIFO depth/stall probes. With
  /// both sinks null (the default) instrumentation reduces to per-site
  /// pointer checks and never schedules simulation events, so timing is
  /// unchanged.
  void attach_observability(obs::Registry* registry, obs::Tracer* tracer);

  /// Publish the block_monitor counters (MonitorStats) and the gauges
  /// derived from lifetime state — per-validator ecdsa-engine utilization,
  /// FIFO peak depths, event-queue high-water mark. Idempotent; call any
  /// time after (or during) a run. No-op when no registry is attached.
  void publish_metrics();

  // Input FIFOs, written by the protocol_processor (or synthetic feeder).
  sim::Fifo<BlockEntry>& block_fifo() { return block_fifo_; }
  sim::Fifo<TxEntry>& tx_fifo() { return tx_fifo_; }
  sim::Fifo<EndsEntry>& ends_fifo() { return ends_fifo_; }
  sim::Fifo<RdsetEntry>& rdset_fifo() { return rdset_fifo_; }
  sim::Fifo<WrsetEntry>& wrset_fifo() { return wrset_fifo_; }

  /// Output: validation results in block order, one entry at a time
  /// (reg_map semantics — the producer blocks until the host reads).
  sim::Fifo<ResultEntry>& reg_map() { return reg_map_; }

  HwKvStore& statedb() { return statedb_; }
  const HwKvStore& statedb() const { return statedb_; }
  const MonitorStats& monitor() const { return monitor_; }
  const HwConfig& config() const { return config_; }

 private:
  /// Control record passed from block_verify to the block_validate stage.
  struct BlockCtl {
    BlockCtl() = default;

    std::uint64_t block_num = 0;
    std::uint32_t tx_count = 0;
    bool block_valid = false;
    BlockStats stats;
  };

  /// Work unit dispatched to a validator.
  struct DispatchedTx {
    DispatchedTx() = default;

    TxEntry tx;
    std::vector<EndsEntry> ends;
    bool block_valid = false;
    sim::Time dispatched_at = 0;
  };

  /// Intermediate result between tx_verify and tx_vscc.
  struct VerifiedTx {
    VerifiedTx() = default;

    DispatchedTx work;
    bool creator_ok = false;
    std::uint32_t executed = 0;
    std::uint32_t skipped = 0;
  };

  /// Result of one transaction leaving a validator.
  struct ValidatedTx {
    ValidatedTx() = default;

    std::uint32_t tx_seq = 0;
    fabric::TxValidationCode code = fabric::TxValidationCode::kNotValidated;
    std::uint16_t read_count = 0;
    std::uint16_t write_count = 0;
    std::uint32_t executed = 0;
    std::uint32_t skipped = 0;
    sim::Time latency = 0;  ///< dispatch -> vscc verdict
  };

  sim::Process block_verify_proc();
  sim::Process tx_scheduler_proc();
  sim::Process tx_verify_proc(int validator);
  sim::Process tx_vscc_proc(int validator);
  sim::Process tx_collector_proc();
  sim::Process tx_mvcc_commit_proc();
  sim::Process reg_map_proc();

  sim::Simulation& sim_;
  HwConfig config_;
  std::map<std::string, PolicyCircuit> policies_;
  std::size_t policy_org_count_ = 0;

  // Input FIFO capacities mirror modest on-chip buffers; back-pressure
  // through them is part of the model.
  sim::Fifo<BlockEntry> block_fifo_;
  sim::Fifo<TxEntry> tx_fifo_;
  sim::Fifo<EndsEntry> ends_fifo_;
  sim::Fifo<RdsetEntry> rdset_fifo_;
  sim::Fifo<WrsetEntry> wrset_fifo_;

  sim::Fifo<BlockCtl> verify_to_validate_;   ///< 2-stage block pipeline
  sim::Fifo<BlockCtl> collector_ctl_;        ///< block info for the collector
  sim::Fifo<BlockCtl> mvcc_ctl_;             ///< block info for mvcc stage
  sim::Fifo<int> free_validators_;           ///< ends_scheduler work tokens
  sim::Fifo<int> assignment_order_;          ///< dispatch order for collector
  std::vector<std::unique_ptr<sim::Fifo<DispatchedTx>>> validator_in_;
  std::vector<std::unique_ptr<sim::Fifo<VerifiedTx>>> verify_to_vscc_;
  std::vector<std::unique_ptr<sim::Fifo<ValidatedTx>>> validator_out_;
  sim::Fifo<ValidatedTx> collected_;         ///< in program order
  /// Completion handshake: block_validate processes one block at a time
  /// (§3.3: res_fifo is written "after the entire block has been
  /// processed"); the scheduler takes the next block only after this token.
  sim::Fifo<int> block_done_;
  sim::Fifo<ResultEntry> res_fifo_;
  sim::Fifo<ResultEntry> reg_map_;

  HwKvStore statedb_;
  MonitorStats monitor_;

  // --- observability -------------------------------------------------------
  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  struct TraceLanes {
    int block_verify = 0;
    int scheduler = 0;
    int collector = 0;
    int mvcc = 0;
    int monitor = 0;
    int reg_map = 0;
    std::vector<int> tx_verify;  ///< one lane per validator
    std::vector<int> tx_vscc;
  } lanes_;
  /// Busy-time accumulators for the engine-utilization gauges (always on —
  /// three integer adds per transaction).
  sim::Time block_engine_busy_ = 0;
  std::vector<sim::Time> verify_engine_busy_;
  std::vector<sim::Time> vscc_engine_busy_;
  // Cached registry handles (null when unattached).
  obs::Histogram* block_latency_ms_ = nullptr;
  obs::Histogram* tx_latency_us_ = nullptr;
};

}  // namespace bm::bmac
