#include "serve/endorse.hpp"

#include <algorithm>

namespace bm::serve {

EndorsementService::EndorsementService(sim::Simulation& sim, Config config,
                                       workload::FabricNetworkHarness& harness,
                                       AdmissionQueue& queue)
    : sim_(sim),
      config_(config),
      harness_(harness),
      queue_(queue),
      pool_(config_.sign_threads == 0 ? std::thread::hardware_concurrency()
                                      : config_.sign_threads) {
  config_.workers = std::max(1, config_.workers);
}

void EndorsementService::pump() {
  while (busy_ < config_.workers) {
    auto request = queue_.pop();
    if (!request) return;
    if (config_.deadline > 0 &&
        sim_.now() - request->arrived > config_.deadline) {
      // The client's SLO already expired while the request queued;
      // executing it would burn a lane on a dead response.
      stats_.cancelled += 1;
      if (flight_ != nullptr)
        flight_->record(obs::FlightStage::kTimedOut, request->id, "deadline");
      if (cancelled_) cancelled_(*request);
      continue;
    }

    // Execute the chaincode now, against the state committed so far — the
    // endorsement reads the versions this simulated moment observes.
    workload::TxDraft draft = harness_.prepare_tx();
    const sim::Time service = service_time(draft);
    busy_ += 1;
    stats_.dispatched += 1;
    stats_.busy_time += service;
    if (flight_ != nullptr)
      flight_->record(obs::FlightStage::kDispatched, request->id);
    sim_.schedule(service, [this, request = *request,
                            draft = std::move(draft)]() mutable {
      busy_ -= 1;
      stats_.completed += 1;
      if (completion_) completion_(request, std::move(draft));
      pump();
    });
  }
}

std::vector<Bytes> EndorsementService::sign_envelopes(
    const std::vector<workload::TxDraft>& drafts) {
  // Each worker signs one contiguous chunk as one batch.
  const std::size_t n = drafts.size();
  const std::size_t chunks =
      std::clamp<std::size_t>(n, 1, pool_.concurrency());
  std::vector<Bytes> envelopes(n);
  pool_.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t first = n * c / chunks;
    std::vector<Bytes> signed_chunk = harness_.sign_envelopes(
        std::span(drafts).subspan(first, n * (c + 1) / chunks - first));
    std::move(signed_chunk.begin(), signed_chunk.end(),
              envelopes.begin() + static_cast<std::ptrdiff_t>(first));
  });
  return envelopes;
}

void EndorsementService::publish_metrics(obs::Registry& registry,
                                         const std::string& prefix) const {
  registry.counter(prefix + "_dispatched_total", "requests dispatched")
      .set(stats_.dispatched);
  registry.counter(prefix + "_completed_total", "endorsements completed")
      .set(stats_.completed);
  registry
      .counter(prefix + "_cancelled_total",
               "queued requests cancelled past their deadline")
      .set(stats_.cancelled);
  registry
      .gauge(prefix + "_busy_seconds",
             "summed simulated lane occupancy")
      .set(static_cast<double>(stats_.busy_time) /
           static_cast<double>(sim::kSecond));
  registry.gauge(prefix + "_busy_workers", "lanes busy right now").set(busy_);
}

}  // namespace bm::serve
