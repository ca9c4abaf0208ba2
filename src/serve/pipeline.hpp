// The open-loop serving pipeline: traffic -> admission -> endorsement ->
// orderer ingress -> validation/commit, end to end on one simulated clock
// (docs/SERVING.md).
//
// run_serve() drives the existing FabricNetworkHarness endorsers and
// orderer through the step-wise submit/collect API as a request pipeline:
//
//   TrafficGenerator        open-loop arrivals (Poisson / MMPP)
//     -> AdmissionQueue     bounded, token-bucket, per-class; sheds with
//                           kOverloaded + retry-after instead of queueing
//     -> EndorsementService worker lanes, deadlines, cancellation
//     -> orderer ingress    batch cutting (max_batch / batch_timeout);
//                           commit-backlog watermarks feed back into the
//                           admission rate limiter
//     -> validation/commit  modeled service time (fabric::SwTimingModel),
//                           real reference validation + state commit
//
// Every committed block goes through the harness's reference backend, so
// per-transaction flags and the commit-hash chain are the same ones the
// closed-loop driver would produce — overload changes *which* transactions
// get in, never what a committed block means. The whole run is
// deterministic: same ServeOptions => identical admission/shed counts,
// identical blocks, identical report.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/endorse.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"
#include "workload/metrics.hpp"
#include "workload/network_harness.hpp"

namespace bm::obs {
class Telemetry;
}

namespace bm::serve {

struct IngressConfig {
  /// Block cut size (Fabric BatchSize.MaxMessageCount). run_serve() sizes
  /// the harness orderer to exactly this.
  std::size_t max_batch = 100;
  /// Cut a partial batch after this long (Fabric BatchTimeout).
  sim::Time batch_timeout = 5 * sim::kMillisecond;
  /// Commit-backlog watermarks, in blocks (the in-service block included):
  /// >= high raises admission pressure, <= low releases it.
  std::size_t high_watermark = 6;
  std::size_t low_watermark = 2;
};

struct ServeOptions {
  std::string name = "serve";
  /// Workload shape (orgs, chaincode, policy, fault knobs, seed). The
  /// orderer batch size is overridden by ingress.max_batch.
  workload::NetworkOptions network;
  TrafficConfig traffic;
  AdmissionConfig admission;
  EndorsementService::Config endorse;
  IngressConfig ingress;
  /// Session/identity layer (serve/session.hpp). Disabled by default:
  /// arrivals are anonymous and the run is bit-identical to the pre-session
  /// pipeline. When enabled, every arrival belongs to an authenticated
  /// client session whose rate class feeds the admission queue, and
  /// admission.classes is raised to at least sessions.rate_classes.
  SessionConfig sessions;
  /// vCPUs of the modeled commit stage (fabric::SwTimingModel input).
  int validate_vcpus = 8;
  /// Fraction of arrivals in priority class 0 (rest are class 1; with one
  /// configured class everything is class 0).
  double high_priority_share = 0.1;
  /// Arrivals are generated for [0, duration]; the pipeline then drains.
  sim::Time duration = 2 * sim::kSecond;
  /// Hard stop for the drain: the run fails (drained = false) if admitted
  /// work is still unresolved this long after the last arrival.
  sim::Time drain_limit = 10 * sim::kSecond;
  /// Replay the committed blocks through an independent software backend
  /// and compare flags + commit hashes against the harness reference. The
  /// report then carries the committed blocks (memory-heavy).
  bool check_equivalence = false;
};

struct ServeReport {
  /// Per-rate-class request accounting (sessions enabled only). offered
  /// partitions into rejected (session layer) + shed (admission) +
  /// timed_out + committed + still-pending.
  struct ClassStats {
    std::uint64_t offered = 0;
    std::uint64_t rejected = 0;  ///< refused by the session layer
    std::uint64_t shed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t committed = 0;
  };

  // Request accounting. offered = every generated arrival;
  // admitted + shed_* (+ rejected_session) partitions offered;
  // timed_out + committed_txs partitions admitted (after the drain).
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_rate_limited = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t valid_txs = 0;
  std::uint64_t blocks_committed = 0;

  double offered_tps = 0;  ///< offered / duration
  double goodput_tps = 0;  ///< valid committed txs / time of last commit

  std::size_t admission_depth_high_water = 0;
  std::size_t ingress_high_water = 0;        ///< drafts awaiting a cut
  std::size_t commit_backlog_high_water = 0; ///< blocks queued + in service
  std::uint64_t pressure_raised = 0;

  sim::Time finished_at = 0;
  bool drained = false;     ///< all admitted work resolved in time
  bool flags_match = true;  ///< equivalence check (when requested)
  std::string mismatch;     ///< first divergence, empty when none

  // Session layer (meaningful when sessions_enabled).
  bool sessions_enabled = false;
  std::uint64_t rejected_session = 0;  ///< arrivals refused by the session layer
  SessionStats session_stats;
  std::size_t sessions_active = 0;   ///< at end of run
  std::size_t sessions_grace = 0;    ///< in the grace window at end of run
  std::size_t session_table = 0;     ///< slots ever allocated (memory driver)
  std::vector<ClassStats> class_stats;  ///< indexed by rate class

  // Per-stage latency breakdown (ms) over committed transactions:
  // admission wait (arrival -> endorse dispatch), endorse service,
  // order wait (endorsed -> block cut), commit (cut -> committed),
  // and the end-to-end total.
  workload::Summary admission_wait_ms;
  workload::Summary endorse_ms;
  workload::Summary order_wait_ms;
  workload::Summary commit_ms;
  workload::Summary total_ms;

  std::vector<fabric::Block> blocks;  ///< when check_equivalence is set

  std::uint64_t shed_total() const {
    return shed_queue_full + shed_rate_limited;
  }
  bool ok() const { return drained && flags_match; }

  /// Deterministic human-readable summary (one value per line).
  std::string to_text() const;
};

/// Run one open-loop serving scenario end to end. Observability sinks are
/// optional; when given, every stage publishes into them ("serve_*"
/// metrics). A configured
/// obs::Telemetry (requires `registry`) additionally runs the continuous
/// time-series sampler, SLO monitor and flight recorder on the run's
/// simulated clock; the report itself is identical with or without it.
ServeReport run_serve(const ServeOptions& options,
                      obs::Registry* registry = nullptr,
                      obs::Tracer* tracer = nullptr,
                      obs::Telemetry* telemetry = nullptr);

}  // namespace bm::serve
