// BMac peer: the hardware/software co-designed validator peer (§3.1, §3.4).
//
// Hardware side (simulated): packets arrive from the network interface into
// the protocol_processor, which extracts records into the block_processor's
// FIFOs; results surface in reg_map. Host side (software): the peer also
// receives the block itself (Gossip or forwarded UDP), waits on
// GetBlockData() for the hardware verdict, merges the transaction flags
// into the block and commits it to the disk-based ledger — overlapping with
// hardware validation of the next block. One commit sequencer does this in
// both modes; healthy mode commits in reg_map order.
//
// Graceful degradation (enable_graceful_degradation(); docs/FAULTS.md):
// on a degraded network the hardware block stream can stall — GBN gives up
// at its retransmission cap, sections go missing, frames arrive corrupted.
// In degraded mode the peer:
//   - assembles each block's records NIC-side and releases them to the
//     hardware FIFOs only once the stream is complete and every earlier
//     block is resolved, so a partial stream can never wedge the pipeline
//     or let one block's records be consumed as another's;
//   - arms a per-block watchdog when the block arrives on the host path;
//     if the hardware result misses its budget because the stream is
//     incomplete, the host validates that block itself with the
//     SoftwareValidator (against a shadow state DB it keeps in sync) and
//     writes the results through to the in-hardware KV store, so later
//     hardware-validated blocks still see fresh versions;
//   - commits strictly in block order, whichever engine produced the flags.
// The committed flags and commit-hash chain are byte-identical to the
// fault-free run — the §4.1 equivalence check extended to faulty networks.
#pragma once

#include <optional>
#include <set>

#include "bmac/block_processor.hpp"
#include "bmac/protocol.hpp"
#include "fabric/ledger.hpp"
#include "fabric/policy.hpp"
#include "fabric/validator.hpp"

namespace bm::obs {
class FlightRecorder;
}

namespace bm::bmac {

/// Graceful-degradation settings (BmacPeer::enable_graceful_degradation).
struct DegradeConfig {
  /// Host block arrival -> hardware result deadline. Past it, a block whose
  /// stream is still incomplete is validated in software. Must comfortably
  /// exceed worst-case hardware latency plus the GBN retransmission budget,
  /// or healthy-but-slow blocks fall back too.
  sim::Time result_budget = 250 * sim::kMillisecond;
  /// Simulated cost of one software fallback validation on the host CPU.
  sim::Time fallback_fixed = 2 * sim::kMillisecond;
  sim::Time fallback_per_tx = 400 * sim::kMicrosecond;
};

class BmacPeer {
 public:
  BmacPeer(sim::Simulation& sim, const fabric::Msp& msp, HwConfig config,
           const std::map<std::string, fabric::EndorsementPolicy>& policies);

  /// Spawn the protocol_processor, block_processor and host processes.
  void start();

  /// Attach observability sinks (either may be null). Call before start().
  /// Creates the peer's protocol/host trace lanes and commit-latency
  /// histogram, hooks the rx_queue depth probe and forwards the sinks to
  /// the BlockProcessor.
  void attach_observability(obs::Registry* registry, obs::Tracer* tracer);

  /// Publish host-side and pipeline counters and gauges. Idempotent and
  /// side-effect free beyond the registry, so telemetry calls it before
  /// every sample.
  void publish_metrics();

  /// Record degrade-path lifecycle events (watchdog fires, fallback
  /// commits, stream aborts) into a flight recorder, and trigger its
  /// post-mortem dump on the first watchdog fire / fallback activation.
  /// Null detaches. Call before start().
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

  // --- graceful degradation -------------------------------------------------
  /// Counters for the degraded-mode machinery (all zero while healthy).
  struct DegradeMetrics {
    std::uint64_t fallback_blocks = 0;      ///< committed via SoftwareValidator
    std::uint64_t watchdog_fires = 0;       ///< budget expired, stream stalled
    std::uint64_t watchdog_deferrals = 0;   ///< budget expired, stream healthy
    std::uint64_t streams_aborted = 0;      ///< partial assemblies discarded
    std::uint64_t late_packets = 0;         ///< packets for resolved blocks
    std::uint64_t malformed_packets = 0;    ///< protocol_processor rejects
  };

  /// Turn on the watchdog + software-fallback path (a sequential
  /// SoftwareValidator). Call before start().
  void enable_graceful_degradation(DegradeConfig config = {});

  const DegradeMetrics& degrade_metrics() const { return degrade_metrics_; }

  /// Network ingress: a BMac packet arrives at the FPGA's interface.
  /// Callable from event context (network delivery callbacks). A packet
  /// that finds the rx queue full is dropped and counted
  /// (HostMetrics::rx_queue_dropped); its block never completes.
  void deliver_packet(BmacPacket packet);

  /// Host ingress: the marshaled block as received by the peer software
  /// (needed for the final ledger commit, and — in degraded mode — as the
  /// input to the software fallback).
  void deliver_block(fabric::Block block);

  // --- results / inspection -------------------------------------------------
  const fabric::Ledger& ledger() const { return ledger_; }
  BlockProcessor& processor() { return processor_; }
  const BlockProcessor& processor() const { return processor_; }

  struct HostMetrics {
    std::uint64_t packets_processed = 0;  ///< consumed by protocol_processor
    std::uint64_t rx_queue_dropped = 0;   ///< arrived at a full rx queue
    std::uint64_t blocks_committed = 0;
    std::uint64_t blocks_rejected = 0;
    /// Rejected because the hardware verdicts do not cover the host block's
    /// envelopes one for one (packets and host block disagree).
    std::uint64_t verdict_mismatches = 0;
    /// Rejected because the block's number is not the ledger height (an
    /// earlier block was rejected; re-delivery is not modeled).
    std::uint64_t out_of_sequence_blocks = 0;
    std::uint64_t transactions_committed = 0;  ///< valid + invalid, in blocks
    std::uint64_t valid_transactions = 0;
    /// Healthy-mode reg_map verdicts for a block already in the ledger (for
    /// example after its packets arrived twice), read and dropped.
    std::uint64_t duplicate_verdicts = 0;
  };
  const HostMetrics& host_metrics() const { return host_metrics_; }

  /// All per-block results in commit order (flags + block_monitor stats;
  /// `fallback` marks software-validated blocks).
  const std::vector<ResultEntry>& results() const { return results_; }

 private:
  /// NIC-side per-block record assembly (degraded mode only): everything
  /// the protocol_processor extracted for one block, held until the stream
  /// is complete.
  struct StreamAssembly {
    enum class State { kAssembling, kComplete, kReleased };
    State state = State::kAssembling;
    std::vector<EndsEntry> ends;
    std::vector<RdsetEntry> reads;
    std::vector<WrsetEntry> writes;
    std::vector<TxEntry> txs;
    std::optional<BlockEntry> block;
    std::set<std::pair<int, std::uint32_t>> sections_seen;
    std::uint32_t total_sections = 0;
  };

  sim::Process protocol_processor_proc();
  /// The host: commits blocks in order, whichever engine produced the
  /// flags. Healthy mode reads GetBlockData() itself and commits in reg_map
  /// order; degraded mode waits for reg_map_drain_proc and the watchdog.
  sim::Process commit_sequencer_proc();
  // Degraded-mode processes:
  sim::Process stream_release_proc();       ///< ordered release to the FIFOs
  sim::Process reg_map_drain_proc();        ///< GetBlockData -> hw_results_

  void note_first_block(std::uint64_t block_num);
  void stage_records(const BmacPacket& packet,
                     ProtocolReceiver::Emitted&& emitted);
  void on_watchdog(std::uint64_t block_num, std::size_t armed_local,
                   std::uint64_t armed_global);
  void arm_watchdog(std::uint64_t block_num);
  std::size_t stream_progress(std::uint64_t block_num) const;
  /// A hardware verdict the host can commit against `block` holds one flag
  /// per envelope of a block that extends the ledger; any other is booked
  /// as a rejected block and counted.
  void check_commitable(ResultEntry& result, const fabric::Block& block);
  /// Whether `block` carries the ledger's next number; counts it if not.
  bool extends_ledger(const fabric::Block& block);
  /// Book one resolved block, whichever engine produced its flags: host
  /// metrics and commit counter, latency histogram, the host_commit (or
  /// host_commit_fallback) span and the results() entry.
  void finish_commit(ResultEntry result, sim::Time commit_start);
  /// Sequencer bookkeeping after a commit: advance the sequencer; in
  /// degraded mode also drop leftover stream state, disarm the watchdog
  /// and kick the release gate.
  void resolve_block(std::uint64_t block_num);

  sim::Simulation& sim_;
  HwConfig config_;
  sim::Fifo<BmacPacket> rx_queue_;
  HwIdentityCache cache_;
  ProtocolReceiver receiver_;
  BlockProcessor processor_;

  std::map<std::uint64_t, fabric::Block> pending_blocks_;
  std::map<std::uint64_t, ResultEntry> hw_results_;  ///< verdicts read
  std::uint64_t next_commit_ = 0;  ///< next block the host will commit
  fabric::Ledger ledger_;
  HostMetrics host_metrics_;
  std::vector<ResultEntry> results_;

  // --- degraded mode --------------------------------------------------------
  std::optional<DegradeConfig> degrade_;
  DegradeMetrics degrade_metrics_;
  fabric::SoftwareValidator fallback_validator_;  ///< sequential
  fabric::StateDb shadow_state_;
  std::map<std::uint64_t, StreamAssembly> streams_;
  std::set<std::uint64_t> fallback_pending_;
  std::map<std::uint64_t, sim::EventId> watchdogs_;
  std::uint64_t staged_sections_total_ = 0;  ///< watchdog progress signal
  std::uint64_t staging_high_water_ = 0;     ///< highest block staged so far
  bool ingest_busy_ = false;  ///< protocol_processor mid-packet
  bool base_known_ = false;
  std::uint64_t next_release_ = 0;  ///< next block to hand to the hardware
  std::unique_ptr<sim::Trigger> release_kick_;
  std::unique_ptr<sim::Trigger> commit_kick_;

  // --- observability -------------------------------------------------------
  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  int protocol_lane_ = 0;
  int host_lane_ = 0;
  obs::Histogram* commit_latency_us_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

/// Compile every chaincode policy into its hardware circuit (the
/// config-driven generation step of §3.5).
std::map<std::string, PolicyCircuit> compile_policies(
    const std::map<std::string, fabric::EndorsementPolicy>& policies,
    const fabric::Msp& msp);

}  // namespace bm::bmac
