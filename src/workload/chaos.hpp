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
  bmac::GbnSender::Config gbn = default_gbn();
  bmac::DegradeConfig degrade;

  double link_gbps = 1.0;
  sim::Time block_interval = 20 * sim::kMillisecond;
  /// Hard stop: a partitioned run that cannot finish ends here.
  sim::Time time_limit = 30 * sim::kSecond;

  /// Chaos defaults: give up on a window after 6 consecutive timeouts
  /// (2+4+8+16+32+64 ms of backoff) instead of retrying forever, so a
  /// partition turns into a fallback instead of a stall.
  static bmac::GbnSender::Config default_gbn() {
    bmac::GbnSender::Config config;
    config.retransmit_cap = 6;
    return config;
  }
};

struct ChaosReport {
  bool complete = false;      ///< every block resolved within time_limit
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

// --- kill-and-restart: the durable-ledger crash drill ----------------------

struct CrashRecoveryOptions {
  /// Workload shape; `network.durability` is overwritten from `durability`.
  NetworkOptions network;
  /// Must be enabled(); the log + snapshots land at durability.ledger_path.
  fabric::DurabilityConfig durability;
  int blocks_before_crash = 24;  ///< committed durably, then the kill
  int blocks_after = 8;          ///< committed after restart + recovery
  /// Seeds the torn-byte draw (a random cut strictly inside the last log
  /// record). Same options => same cut => same report.
  std::uint64_t crash_seed = 7;
};

struct CrashRecoveryReport {
  bool crashed_mid_record = false;  ///< the cut actually tore the tail
  bool recovered = false;           ///< post-crash recovery succeeded
  bool hashes_match = false;        ///< recovered chain == reference prefix
  bool resumed = false;             ///< restart re-appended + extended the log
  bool final_chain_matches = false; ///< final recovery == full reference
  std::string mismatch;             ///< first divergence, empty when none

  std::uint64_t crash_offset = 0;     ///< file size after the cut
  std::uint64_t recovered_height = 0; ///< chain height right after the crash
  std::uint64_t final_height = 0;     ///< chain height after the full run
  fabric::RecoveryResult recovery;    ///< the post-crash recovery

  bool ok() const {
    return crashed_mid_record && recovered && hashes_match && resumed &&
           final_chain_matches;
  }

  /// Deterministic human-readable summary (one value per line).
  std::string to_text() const;
};

/// Kill-and-restart drill for the durable ledger (docs/DURABILITY.md):
///
///   1. commit `blocks_before_crash` blocks through a durability-enabled
///      harness, then drop it ("kill -9");
///   2. truncate the log at a random byte strictly inside the last record
///      (a torn append — the crash the reopened-store bug silently ate);
///   3. recover ledger + state from disk (snapshot + replay when the config
///      cuts snapshots) and check commit hashes byte for byte against the
///      reference chain;
///   4. restart a same-seed harness over the same log — the reopened store
///      must seed its chain head from the surviving prefix — and commit at
///      full speed through `blocks_after` extra blocks;
///   5. recover once more and check the *entire* chain, pre-crash and
///      post-restart blocks alike, against the reference.
///
/// When `registry` is given, recovery outcome and final store counters are
/// published under "chaos_recovery_..." / "chaos_durable_...".
CrashRecoveryReport run_crash_recovery(const CrashRecoveryOptions& options,
                                       obs::Registry* registry = nullptr);

}  // namespace bm::workload
