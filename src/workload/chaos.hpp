// Chaos harness: the BMac peer driven through a faulty network, checked
// against the fault-free software baseline (docs/FAULTS.md).
//
// Wires the full degraded-path stack end to end:
//
//   FabricNetworkHarness -> ProtocolSender -> GbnSender (CRC framing,
//   backoff RTO, retransmission cap) -> FaultyChannel (burst loss,
//   corruption, reorder, duplication, partitions) -> GbnReceiver ->
//   BmacPeer with graceful degradation enabled
//
// and verifies the paper's §4.1 equivalence invariant under faults: the
// committed per-transaction flags and the commit-hash chain must be
// byte-identical to the harness's reference (fault-free software) run, with
// any stalled block recovered by the peer's software fallback. Everything
// is deterministic: same options => same report, trace and metrics.
#pragma once

#include "bmac/peer.hpp"
#include "bmac/reliable.hpp"
#include "net/faults.hpp"
#include "workload/network_harness.hpp"

namespace bm::obs {
class Telemetry;
}

namespace bm::workload {

struct ChaosOptions {
  NetworkOptions network;        ///< workload shape (chaincode, block size)
  net::FaultScenario scenario;   ///< per-direction fault schedule
  int blocks = 12;
  bool tamper_last_block = false;
  bmac::HwConfig hw;
};

struct ChaosReport {
  bool complete = false;      ///< every block resolved within 30 s
  bool hashes_match = false;  ///< commit-hash chain == reference ledger
  bool flags_match = false;   ///< per-tx flags == reference results
  std::string mismatch;       ///< first divergence, empty when none

  std::uint64_t blocks_produced = 0;
  std::uint64_t blocks_committed = 0;
  std::uint64_t blocks_rejected = 0;
  std::uint64_t gbn_failures = 0;  ///< failure-callback firings
  sim::Time finished_at = 0;

  bmac::GbnStats sender_stats;
  bmac::GbnStats receiver_stats;
  net::FaultStats data_faults;
  net::FaultStats ack_faults;
  bmac::BmacPeer::DegradeMetrics degrade;
  bmac::BmacPeer::HostMetrics host;

  bool ok() const { return complete && hashes_match && flags_match; }

  /// Deterministic human-readable summary (one value per line).
  std::string to_text() const;
};

/// Run one scenario end to end. Observability sinks are optional; when
/// given, the peer, channels and fault counters publish into them. A
/// configured obs::Telemetry (requires `registry`) additionally samples the
/// run continuously and arms the flight recorder on the degrade path; the
/// report itself is identical with or without it.
ChaosReport run_chaos_scenario(const ChaosOptions& options,
                               obs::Registry* registry = nullptr,
                               obs::Tracer* tracer = nullptr,
                               obs::Telemetry* telemetry = nullptr);

}  // namespace bm::workload
