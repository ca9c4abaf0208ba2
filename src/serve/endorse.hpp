// EndorsementService: the execute phase of execute-order-validate as a
// deadline-aware multi-worker stage (docs/SERVING.md).
//
// Admitted requests wait in the AdmissionQueue until one of `workers`
// simulated endorser lanes frees up. At dispatch the service checks the
// request's deadline — work that already blew its SLO while queued is
// *cancelled* (counted, never executed) instead of wasting a lane on a
// response the client has stopped waiting for. Dispatched requests execute
// the chaincode against committed endorsement state (TxDraft, sequential,
// deterministic) and occupy the lane for a modeled service time; the real
// ECDSA signing of the resulting envelopes is deferred to block cut and
// fanned across a common::ThreadPool (sign_envelopes) in contiguous
// batches, which is wall-clock parallelism only — deterministic signatures
// and per-index output slots keep the bytes deterministic.
#pragma once

#include <functional>

#include "common/thread_pool.hpp"
#include "obs/flight.hpp"
#include "serve/admission.hpp"
#include "workload/network_harness.hpp"

namespace bm::serve {

class EndorsementService {
 public:
  struct Config {
    int workers = 8;  ///< simulated endorser lanes (chaincode containers)
    /// Modeled service time: base + per_endorsement * endorsers(draft).
    /// Defaults approximate a chaincode execution plus one ECDSA sign per
    /// endorsement response. They are modeled constants, not this host's
    /// signing cost.
    sim::Time service_base = 150 * sim::kMicrosecond;
    sim::Time per_endorsement = 120 * sim::kMicrosecond;
    /// Queue-to-dispatch deadline; 0 disables cancellation.
    sim::Time deadline = 50 * sim::kMillisecond;
    /// Thread-pool width for the real signing work; 1 = inline,
    /// 0 = hardware_concurrency.
    unsigned sign_threads = 1;
  };

  struct Stats {
    std::uint64_t dispatched = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;  ///< deadline expired while queued
    sim::Time busy_time = 0;      ///< summed lane occupancy
  };

  /// Called (at the completion's simulated time) with the finished draft.
  using CompletionFn =
      std::function<void(AdmittedRequest, workload::TxDraft)>;
  /// Called when a queued request is cancelled past its deadline.
  using CancelFn = std::function<void(AdmittedRequest)>;

  EndorsementService(sim::Simulation& sim, Config config,
                     workload::FabricNetworkHarness& harness,
                     AdmissionQueue& queue);

  void set_completion(CompletionFn fn) { completion_ = std::move(fn); }
  void set_cancelled(CancelFn fn) { cancelled_ = std::move(fn); }

  /// Dispatch waiting requests onto free lanes. Call after every admission
  /// and every completion; idempotent when nothing can start.
  void pump();

  int free_workers() const { return config_.workers - busy_; }
  bool idle() const { return busy_ == 0; }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

  sim::Time service_time(const workload::TxDraft& draft) const {
    return config_.service_base +
           config_.per_endorsement *
               static_cast<sim::Time>(draft.endorsers.size());
  }

  /// Sign a batch of drafts into envelopes across the thread pool: each
  /// worker signs one contiguous chunk with harness.sign_envelopes.
  /// Deterministic: slot i holds sign_envelope(drafts[i]).
  std::vector<Bytes> sign_envelopes(
      const std::vector<workload::TxDraft>& drafts);

  /// Snapshot the counters and the busy-lane count under "<prefix>_..."
  /// (idempotent; the telemetry sampler calls it before every sample).
  void publish_metrics(obs::Registry& registry,
                       const std::string& prefix) const;

  /// Record dispatch / deadline-cancel lifecycle events (null to detach).
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

 private:
  sim::Simulation& sim_;
  Config config_;
  workload::FabricNetworkHarness& harness_;
  AdmissionQueue& queue_;
  ThreadPool pool_;
  CompletionFn completion_;
  CancelFn cancelled_;
  int busy_ = 0;
  Stats stats_;

  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace bm::serve
