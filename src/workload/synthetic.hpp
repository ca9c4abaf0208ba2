// Synthetic workload runners for the performance benches.
//
// The hardware runner drives the full block_processor pipeline model in the
// discrete-event simulator with a saturating stream of blocks (like the
// paper's Caliper runs at maximum send rate) and measures commit throughput
// and block validation latency from the block_monitor. Verification results
// are precomputed (the signatures would be valid), which changes only the
// host's wall-clock cost of running the simulation — simulated timing is
// identical because the engine model charges the same 145 us either way.
//
// The software peer numbers come from the calibrated timing model
// (fabric/timing_model.hpp); see DESIGN.md for the substitution rationale.
#pragma once

#include "bmac/block_processor.hpp"
#include "fabric/timing_model.hpp"
#include "workload/chaincode.hpp"

namespace bm::workload {

struct SyntheticSpec {
  int blocks = 40;
  int block_size = 150;

  /// Endorsements attached per transaction; endorsement slot i comes from
  /// org 1 + i % org_count.
  int ends_attached = 2;

  std::string chaincode = "smallbank";
  std::string policy_text = "2-outof-2 orgs";
  int org_count = 4;

  double reads_per_tx = 2.0;
  double writes_per_tx = 2.0;

  /// Keys written rotate over this working set (0 = half the hardware
  /// database capacity, which always fits on-chip).
  std::size_t write_working_set = 0;
  /// §5 extension: back the in-hardware store with a host StateDb so a
  /// working set larger than the on-chip capacity spills instead of
  /// overflowing.
  bool host_backed_db = false;

  bm::bmac::HwConfig hw;

  /// Observability sinks (null = off, the default). When set, the run
  /// attaches them to the BlockProcessor, emits "host-commit" spans from
  /// the drain process and publishes end-of-run gauges into the registry.
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct HwRunResult {
  double tps = 0;                 ///< commit throughput
  double block_latency_ms = 0;    ///< mean block validation latency
  double tx_latency_us = 0;       ///< mean per-tx validation latency
  std::uint64_t ecdsa_executed = 0;
  std::uint64_t ecdsa_skipped = 0;
  std::uint64_t valid_txs = 0;
  std::uint64_t total_txs = 0;
  std::uint64_t db_overflows = 0;
  std::uint64_t db_evictions = 0;
  std::uint64_t db_host_accesses = 0;
  double sim_seconds = 0;
  /// Total simulator events run — used by the zero-overhead test: a run
  /// with null sinks executes exactly as many events as an uninstrumented
  /// one (probes never schedule).
  std::uint64_t events_executed = 0;
};

/// Run the hardware pipeline model on a synthetic saturating workload.
HwRunResult run_hw_workload(const SyntheticSpec& spec);

struct SwRunResult {
  double validator_tps = 0;
  double endorser_tps = 0;
  double block_latency_ms = 0;  ///< validator peer
};

/// Software-only peer performance for the equivalent workload at `vcpus`.
SwRunResult run_sw_model(const SyntheticSpec& spec, int vcpus);

}  // namespace bm::workload
