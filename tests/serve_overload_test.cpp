// Overload behaviour of the serving front end (serve/admission.hpp,
// serve/pipeline.hpp): bounded queues under saturation, explicit
// kOverloaded shedding with retry-after, priority classes, token-bucket
// rate limiting with watermark backpressure, deadline cancellation,
// deterministic reruns, and flag-equivalence of admitted transactions with
// the closed-loop reference pipeline.
#include <gtest/gtest.h>

#include "serve/pipeline.hpp"

namespace bm::serve {
namespace {

// --- AdmissionQueue unit tests ----------------------------------------------

TEST(AdmissionQueue, AdmitsUntilCapacityThenShedsWithRetryAfter) {
  AdmissionConfig config;
  config.queue_capacity = 4;
  config.classes = 1;
  AdmissionQueue queue(config);

  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(queue.offer(i, 0, 0).admitted());
  for (std::uint64_t i = 4; i < 6; ++i) {
    const AdmissionDecision decision = queue.offer(i, 0, 0);
    EXPECT_EQ(decision.result, AdmitResult::kOverloaded);
    EXPECT_GT(decision.retry_after, 0u);
  }
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.stats().admitted, 4u);
  EXPECT_EQ(queue.stats().shed_queue_full, 2u);
  EXPECT_EQ(queue.stats().depth_high_water, 4u);

  // Popping frees a slot; the next offer is admitted again.
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.offer(6, 0, 0).admitted());
}

TEST(AdmissionQueue, LowPriorityClassShedsFirst) {
  AdmissionConfig config;
  config.queue_capacity = 8;
  config.classes = 2;  // class 1 may only use the first 8 >> 1 = 4 slots
  AdmissionQueue queue(config);

  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(queue.offer(i, 1, 0).admitted());
  EXPECT_EQ(queue.offer(4, 1, 0).result, AdmitResult::kOverloaded);

  // Class 0 still gets in until the whole queue is full.
  for (std::uint64_t i = 5; i < 9; ++i)
    EXPECT_TRUE(queue.offer(i, 0, 0).admitted());
  EXPECT_EQ(queue.offer(9, 0, 0).result, AdmitResult::kOverloaded);

  // pop() drains strictly by class: all of class 0 before any class 1.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(queue.pop()->klass, 0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(queue.pop()->klass, 1);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(AdmissionQueue, TokenBucketCapsSustainedRate) {
  AdmissionConfig config;
  config.queue_capacity = 100;
  config.classes = 1;
  config.token_rate_tps = 1000;
  config.bucket_capacity = 5;
  AdmissionQueue queue(config);

  // The bucket starts full: a 5-request burst passes, the 6th is shed with
  // a retry-after of about one token time (1 ms at 1000 tps).
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_TRUE(queue.offer(i, 0, 0).admitted());
  const AdmissionDecision shed = queue.offer(5, 0, 0);
  EXPECT_EQ(shed.result, AdmitResult::kOverloaded);
  EXPECT_GT(shed.retry_after, 0u);
  EXPECT_LE(shed.retry_after, 2 * sim::kMillisecond);
  EXPECT_EQ(queue.stats().shed_rate_limited, 1u);

  // 10 ms later the bucket has refilled (capped at capacity 5).
  for (std::uint64_t i = 6; i < 11; ++i)
    EXPECT_TRUE(queue.offer(i, 0, 10 * sim::kMillisecond).admitted());
  EXPECT_EQ(queue.offer(11, 0, 10 * sim::kMillisecond).result,
            AdmitResult::kOverloaded);
}

TEST(AdmissionQueue, PressureSlowsTheRefill) {
  AdmissionConfig config;
  config.queue_capacity = 100;
  config.classes = 1;
  config.token_rate_tps = 1000;
  config.bucket_capacity = 1;
  config.pressure_refill_factor = 0.25;
  AdmissionQueue queue(config);

  EXPECT_TRUE(queue.offer(0, 0, 0).admitted());  // drains the bucket
  queue.set_pressure(true, 0);
  EXPECT_EQ(queue.stats().pressure_raised, 1u);
  queue.set_pressure(true, 0);  // idempotent
  EXPECT_EQ(queue.stats().pressure_raised, 1u);

  // At 250 tps effective refill a token takes 4 ms, not 1 ms.
  EXPECT_EQ(queue.offer(1, 0, 2 * sim::kMillisecond).result,
            AdmitResult::kOverloaded);
  EXPECT_TRUE(queue.offer(2, 0, 4 * sim::kMillisecond).admitted());

  // Releasing pressure restores the full rate.
  queue.set_pressure(false, 4 * sim::kMillisecond);
  EXPECT_TRUE(queue.offer(3, 0, 5 * sim::kMillisecond).admitted());
}

// Regression: pressure_refill_factor == 0 (a legal "stop admitting under
// pressure" setting) made the retry-after hints divide by a zero refill
// rate — undefined behaviour on the int cast. Both shed paths must fall
// back to the 1 ms hint instead.
TEST(AdmissionQueue, ZeroPressureRefillFactorShedsWithFiniteRetryAfter) {
  AdmissionConfig config;
  config.queue_capacity = 2;
  config.classes = 1;
  config.token_rate_tps = 1000;
  config.bucket_capacity = 3;
  config.pressure_refill_factor = 0.0;
  AdmissionQueue queue(config);
  queue.set_pressure(true, 0);

  // Rate-limited shed path: the bucket never refills under pressure.
  EXPECT_TRUE(queue.offer(0, 0, 0).admitted());
  EXPECT_TRUE(queue.offer(1, 0, 0).admitted());
  // Queue is now full (capacity 2): queue-full shed path, zero rate.
  const AdmissionDecision full = queue.offer(2, 0, 0);
  EXPECT_EQ(full.result, AdmitResult::kOverloaded);
  EXPECT_EQ(full.retry_after, sim::kMillisecond);
  EXPECT_EQ(queue.stats().shed_queue_full, 1u);

  // Drain the queue; the third token goes, then the empty bucket (which
  // refills at 0 tps) sheds rate-limited — also with the finite fallback.
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.offer(3, 0, sim::kSecond).admitted());
  const AdmissionDecision limited = queue.offer(4, 0, 2 * sim::kSecond);
  EXPECT_EQ(limited.result, AdmitResult::kOverloaded);
  EXPECT_EQ(limited.retry_after, sim::kMillisecond);
  EXPECT_EQ(queue.stats().shed_rate_limited, 1u);
}

// --- end-to-end pipeline tests ----------------------------------------------

ServeOptions small_scenario(std::uint64_t seed = 7) {
  ServeOptions options;
  options.network.seed = seed;
  options.traffic.seed = seed ^ 0x9E3779B97F4A7C15ull;
  options.traffic.rate_tps = 2000;
  options.duration = 150 * sim::kMillisecond;
  options.ingress.max_batch = 50;
  return options;
}

TEST(ServePipeline, OverloadShedsExplicitlyAndQueuesStayBounded) {
  ServeOptions options = small_scenario();
  options.traffic.rate_tps = 6000;
  options.duration = 300 * sim::kMillisecond;
  options.admission.queue_capacity = 64;
  options.endorse.workers = 2;
  options.endorse.service_base = sim::kMillisecond;  // ~2000 tps capacity
  options.endorse.per_endorsement = 0;
  options.endorse.deadline = 0;  // isolate shedding from cancellation
  options.validate_vcpus = 1;    // slow commit stage: exercise watermarks
  options.ingress.high_watermark = 3;
  options.ingress.low_watermark = 1;

  const ServeReport report = run_serve(options);
  EXPECT_TRUE(report.drained) << report.to_text();

  // ~3x overload: a large fraction of offered load is refused explicitly.
  EXPECT_GT(report.shed_total(), report.offered / 3);
  EXPECT_GT(report.committed_txs, 0u);

  // Nothing queues unboundedly.
  EXPECT_LE(report.admission_depth_high_water,
            options.admission.queue_capacity);
  EXPECT_LE(report.ingress_high_water, options.ingress.max_batch);

  // The slow commit stage raised backpressure at least once.
  EXPECT_GE(report.pressure_raised, 1u);

  // Conservation: every offered request is accounted for exactly once.
  EXPECT_EQ(report.offered, report.admitted + report.shed_total());
  EXPECT_EQ(report.admitted, report.committed_txs + report.timed_out);
}

TEST(ServePipeline, DeadlineExpiredRequestsAreCancelledNotExecuted) {
  ServeOptions options = small_scenario(13);
  options.traffic.rate_tps = 2000;
  options.duration = 200 * sim::kMillisecond;
  options.admission.queue_capacity = 512;  // deep queue: waits exceed the SLO
  options.endorse.workers = 1;
  options.endorse.service_base = 2 * sim::kMillisecond;  // ~500 tps capacity
  options.endorse.per_endorsement = 0;
  options.endorse.deadline = 10 * sim::kMillisecond;

  const ServeReport report = run_serve(options);
  EXPECT_TRUE(report.drained) << report.to_text();
  EXPECT_GT(report.timed_out, 0u);
  EXPECT_GT(report.committed_txs, 0u);
  EXPECT_EQ(report.admitted, report.committed_txs + report.timed_out);
}

TEST(ServePipeline, DeterministicRerunsReproduceCountsExactly) {
  ServeOptions options = small_scenario(29);
  options.traffic.process = ArrivalProcess::kMmpp;
  options.traffic.rate_tps = 1500;
  options.admission.queue_capacity = 96;
  options.admission.token_rate_tps = 1800;
  options.admission.bucket_capacity = 40;
  options.endorse.workers = 4;

  const ServeReport a = run_serve(options);
  const ServeReport b = run_serve(options);

  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
  EXPECT_EQ(a.shed_rate_limited, b.shed_rate_limited);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.committed_txs, b.committed_txs);
  EXPECT_EQ(a.valid_txs, b.valid_txs);
  EXPECT_EQ(a.blocks_committed, b.blocks_committed);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.pressure_raised, b.pressure_raised);
  EXPECT_DOUBLE_EQ(a.total_ms.p99, b.total_ms.p99);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_GT(a.shed_total() + a.timed_out, 0u);  // the run exercised overload
}

TEST(ServePipeline, AdmittedTxsCommitWithReferenceFlagsUnderFaults) {
  // Fault knobs on: the committed blocks carry a nontrivial mix of flags,
  // and the equivalence check replays them through an independent backend
  // against the closed-loop reference results.
  ServeOptions options = small_scenario(31);
  options.network.bad_signature_rate = 0.05;
  options.network.missing_endorsement_rate = 0.05;
  options.network.conflicting_read_rate = 0.10;
  options.duration = 120 * sim::kMillisecond;
  options.check_equivalence = true;

  const ServeReport report = run_serve(options);
  EXPECT_TRUE(report.drained) << report.to_text();
  EXPECT_TRUE(report.flags_match) << report.mismatch;
  EXPECT_GT(report.committed_txs, 0u);
  EXPECT_LT(report.valid_txs, report.committed_txs);  // faults did land
  EXPECT_FALSE(report.blocks.empty());
}

TEST(ServePipeline, ReportTextIsDeterministicAndComplete) {
  ServeOptions options = small_scenario(41);
  options.duration = 60 * sim::kMillisecond;
  const ServeReport report = run_serve(options);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("offered"), std::string::npos);
  EXPECT_NE(text.find("goodput"), std::string::npos);
  EXPECT_NE(text.find("p99.9"), std::string::npos);
  EXPECT_NE(text.find("drained: yes"), std::string::npos);
}

}  // namespace
}  // namespace bm::serve
