// Session/identity layer of the serving front end (serve/session.hpp) and
// its O(1) timer wheel (serve/timer_wheel.hpp): handshake authentication
// against the MSP, monotone per-session sequence numbers, idle eviction
// with a reconnect grace window, wheel-vs-naive-oracle exactness, and the
// session-aware pipeline's determinism + per-class accounting.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "fabric/identity.hpp"
#include "serve/pipeline.hpp"
#include "serve/session.hpp"
#include "serve/timer_wheel.hpp"
#include "sim/simulation.hpp"

namespace bm::serve {
namespace {

struct SessionFixture {
  sim::Simulation sim;
  fabric::Msp msp;
  fabric::Certificate good_cert;
  fabric::Certificate rogue_cert;

  SessionFixture() {
    fabric::CertificateAuthority& ca = msp.add_org("Org1");
    good_cert = ca.issue(fabric::Role::kClient, 0, "client0.test").cert;
    // Issued by a CA the MSP never registered: the forged-handshake case.
    const fabric::CertificateAuthority rogue("RogueOrg", 200);
    rogue_cert = rogue.issue(fabric::Role::kClient, 0, "rogue.test").cert;
  }

  SessionConfig config() const {
    SessionConfig c;
    c.enabled = true;
    c.idle_timeout = 50 * sim::kMillisecond;
    c.grace = 20 * sim::kMillisecond;
    c.wheel_granularity = sim::kMillisecond;
    c.rate_classes = 3;
    return c;
  }
};

TEST(SessionManager, HandshakeValidatesAgainstMsp) {
  SessionFixture f;
  SessionManager manager(f.sim, f.msp, f.config());

  const auto ok = manager.open(f.good_cert, 1);
  EXPECT_EQ(ok.verdict, SessionVerdict::kOk);
  EXPECT_NE(ok.id, kNoSession);
  EXPECT_TRUE(manager.is_active(ok.id));
  EXPECT_EQ(manager.rate_class(ok.id), 1);

  const auto bad = manager.open(f.rogue_cert, 0);
  EXPECT_EQ(bad.verdict, SessionVerdict::kBadCert);
  EXPECT_EQ(bad.id, kNoSession);
  EXPECT_EQ(manager.stats().opened, 1u);
  EXPECT_EQ(manager.stats().rejected_bad_cert, 1u);
  EXPECT_EQ(manager.active_count(), 1u);
}

TEST(SessionManager, CapacityCapRejects) {
  SessionFixture f;
  SessionConfig config = f.config();
  config.max_sessions = 2;
  SessionManager manager(f.sim, f.msp, config);

  EXPECT_EQ(manager.open(f.good_cert, 0).verdict, SessionVerdict::kOk);
  EXPECT_EQ(manager.open(f.good_cert, 0).verdict, SessionVerdict::kOk);
  EXPECT_EQ(manager.open(f.good_cert, 0).verdict, SessionVerdict::kCapacity);
  EXPECT_EQ(manager.stats().rejected_capacity, 1u);
}

TEST(SessionManager, SequenceNumbersAreMonotone) {
  SessionFixture f;
  SessionConfig config = f.config();
  config.seq_limit = 4;
  SessionManager manager(f.sim, f.msp, config);
  const SessionId id = manager.open(f.good_cert, 0).id;

  EXPECT_EQ(manager.expected_seq(id), 0u);
  EXPECT_EQ(manager.submit(id, 0), SessionVerdict::kOk);
  EXPECT_EQ(manager.submit(id, 1), SessionVerdict::kOk);
  EXPECT_EQ(manager.expected_seq(id), 2u);

  // Replay of an already-consumed number.
  EXPECT_EQ(manager.submit(id, 1), SessionVerdict::kDuplicateSeq);
  // Gap: a number from the future.
  EXPECT_EQ(manager.submit(id, 3), SessionVerdict::kOutOfOrderSeq);
  // Neither rejection advanced the expectation.
  EXPECT_EQ(manager.expected_seq(id), 2u);
  EXPECT_EQ(manager.submit(id, 2), SessionVerdict::kOk);
  EXPECT_EQ(manager.submit(id, 3), SessionVerdict::kOk);

  // seq_limit exhausts the session's sequence space.
  EXPECT_EQ(manager.submit(id, 4), SessionVerdict::kSeqOverflow);
  EXPECT_EQ(manager.stats().seq_duplicate, 1u);
  EXPECT_EQ(manager.stats().seq_out_of_order, 1u);
  EXPECT_EQ(manager.stats().seq_overflow, 1u);

  // Unknown handles are rejected outright.
  EXPECT_EQ(manager.submit(0xdeadbeefull << 32 | 17, 0),
            SessionVerdict::kUnknownSession);
}

TEST(SessionManager, IdleEvictionAndGraceReconnect) {
  SessionFixture f;
  SessionManager manager(f.sim, f.msp, f.config());
  const SessionId id = manager.open(f.good_cert, 2).id;
  EXPECT_EQ(manager.submit(id, 0), SessionVerdict::kOk);

  // Idle past the timeout: evicted into the grace window.
  f.sim.run_until(60 * sim::kMillisecond);
  EXPECT_FALSE(manager.is_active(id));
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.grace_count(), 1u);
  EXPECT_EQ(manager.stats().evicted, 1u);
  // Submitting against an evicted session demands a resume first.
  EXPECT_EQ(manager.submit(id, 1), SessionVerdict::kIdleEvicted);

  // Reconnect within grace: same id, sequence state intact.
  EXPECT_EQ(manager.resume(id, f.good_cert), SessionVerdict::kOk);
  EXPECT_TRUE(manager.is_active(id));
  EXPECT_EQ(manager.expected_seq(id), 1u);
  EXPECT_EQ(manager.rate_class(id), 2);
  EXPECT_EQ(manager.stats().reconnected, 1u);
  EXPECT_EQ(manager.submit(id, 1), SessionVerdict::kOk);

  // Last activity was the submit at 60ms, so eviction lands at 110ms and
  // the grace window runs to 130ms. A resume handshake still authenticates:
  // inside the window, a forged cert is refused, not resumed.
  f.sim.run_until(120 * sim::kMillisecond);
  EXPECT_FALSE(manager.is_active(id));
  EXPECT_EQ(manager.resume(id, f.rogue_cert), SessionVerdict::kBadCert);
}

TEST(SessionManager, ResumeNeedsTheOpenersCertificate) {
  SessionFixture f;
  const fabric::Certificate mallory =
      f.msp.find_org("Org1")
          ->issue(fabric::Role::kClient, 1, "mallory.test")
          .cert;
  ASSERT_TRUE(f.msp.validate(mallory));
  SessionManager manager(f.sim, f.msp, f.config());
  const SessionId id = manager.open(f.good_cert, 0).id;
  EXPECT_EQ(manager.submit(id, 0), SessionVerdict::kOk);
  EXPECT_EQ(manager.submit(id, 1), SessionVerdict::kOk);
  // Another valid identity cannot take over a live session either.
  EXPECT_EQ(manager.resume(id, mallory), SessionVerdict::kBadCert);

  // Idle into the grace window (eviction at 50ms, purge at 70ms).
  f.sim.run_until(60 * sim::kMillisecond);
  ASSERT_EQ(manager.grace_count(), 1u);
  EXPECT_EQ(manager.resume(id, mallory), SessionVerdict::kBadCert);
  EXPECT_FALSE(manager.is_active(id));
  EXPECT_EQ(manager.stats().reconnected, 0u);
  EXPECT_EQ(manager.stats().rejected_bad_cert, 2u);

  // The opener still resumes at its own sequence number.
  EXPECT_EQ(manager.resume(id, f.good_cert), SessionVerdict::kOk);
  EXPECT_EQ(manager.expected_seq(id), 2u);
  EXPECT_EQ(manager.submit(id, 2), SessionVerdict::kOk);
}

TEST(SessionManager, GraceExpiryPurgesAndBumpsGeneration) {
  SessionFixture f;
  SessionManager manager(f.sim, f.msp, f.config());
  const SessionId id = manager.open(f.good_cert, 0).id;

  // idle_timeout (50ms) + grace (20ms): past both, the slot is purged.
  f.sim.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(manager.grace_count(), 0u);
  EXPECT_EQ(manager.stats().purged, 1u);
  EXPECT_EQ(manager.resume(id, f.good_cert), SessionVerdict::kUnknownSession);
  EXPECT_EQ(manager.submit(id, 1), SessionVerdict::kUnknownSession);

  // The slot is recycled under a new generation; the stale id stays dead.
  const SessionId fresh = manager.open(f.good_cert, 0).id;
  EXPECT_NE(fresh, id);
  EXPECT_EQ(static_cast<std::uint32_t>(fresh), static_cast<std::uint32_t>(id))
      << "expected the purged slot to be reused";
  EXPECT_EQ(manager.submit(id, 0), SessionVerdict::kUnknownSession);
  EXPECT_EQ(manager.submit(fresh, 0), SessionVerdict::kOk);
}

TEST(SessionManager, SubmitRefreshesIdleTimer) {
  SessionFixture f;
  SessionManager manager(f.sim, f.msp, f.config());
  const SessionId id = manager.open(f.good_cert, 0).id;

  // Keep touching the session every 30ms; it must never evict even though
  // the total elapsed time is many idle_timeouts.
  for (int i = 1; i <= 10; ++i) {
    f.sim.run_until(i * 30 * sim::kMillisecond);
    EXPECT_TRUE(manager.is_active(id)) << "evicted at step " << i;
    EXPECT_EQ(manager.submit(id, static_cast<std::uint64_t>(i - 1)),
              SessionVerdict::kOk);
  }
  EXPECT_EQ(manager.stats().evicted, 0u);
}

// --- timer wheel -------------------------------------------------------------

// Naive oracle: a map of armed deadlines, quantized with the same
// ceil-to-tick rule the wheel documents (a timer armed for T fires at the
// first wheel tick >= T, never in the past).
class NaiveWheel {
 public:
  explicit NaiveWheel(sim::Time granularity) : granularity_(granularity) {}

  void arm(std::uint32_t key, sim::Time deadline) {
    std::uint64_t tick =
        deadline <= 0
            ? current_ + 1
            : (static_cast<std::uint64_t>(deadline) +
               static_cast<std::uint64_t>(granularity_) - 1) /
                  static_cast<std::uint64_t>(granularity_);
    if (tick <= current_) tick = current_ + 1;
    armed_[key] = tick;
  }
  void disarm(std::uint32_t key) { armed_.erase(key); }

  std::set<std::uint32_t> advance(sim::Time now) {
    const std::uint64_t target = static_cast<std::uint64_t>(now) /
                                 static_cast<std::uint64_t>(granularity_);
    std::set<std::uint32_t> fired;
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->second <= target) {
        fired.insert(it->first);
        it = armed_.erase(it);
      } else {
        ++it;
      }
    }
    if (target > current_) current_ = target;
    return fired;
  }

  std::size_t size() const { return armed_.size(); }

 private:
  sim::Time granularity_;
  std::uint64_t current_ = 0;
  std::map<std::uint32_t, std::uint64_t> armed_;
};

TEST(TimerWheel, MatchesNaiveOracleUnderRandomWorkload) {
  const sim::Time g = sim::kMillisecond;
  TimerWheel wheel(g);
  NaiveWheel oracle(g);
  Rng rng(2024);

  constexpr std::uint32_t kKeys = 512;
  sim::Time now = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.uniform(10);
    const std::uint32_t key = static_cast<std::uint32_t>(rng.uniform(kKeys));
    if (op < 5) {
      // Mix of near deadlines (level 0) and far ones (cascading levels).
      const sim::Time horizon = (op % 2 == 0) ? 200 * g : 3000 * g;
      const sim::Time deadline =
          now + static_cast<sim::Time>(rng.uniform(
                    static_cast<std::uint64_t>(horizon))) + 1;
      wheel.arm(key, deadline);
      oracle.arm(key, deadline);
    } else if (op < 7) {
      wheel.disarm(key);
      oracle.disarm(key);
    } else {
      now += static_cast<sim::Time>(rng.uniform(300)) * g / 4 + 1;
      std::set<std::uint32_t> fired;
      wheel.advance(now, [&](std::uint32_t k) { fired.insert(k); });
      EXPECT_EQ(fired, oracle.advance(now)) << "step " << step;
    }
    ASSERT_EQ(wheel.size(), oracle.size()) << "step " << step;
  }
}

TEST(TimerWheel, RearmMovesTheDeadline) {
  TimerWheel wheel(sim::kMillisecond);
  wheel.arm(7, 10 * sim::kMillisecond);
  EXPECT_TRUE(wheel.armed(7));
  wheel.arm(7, 500 * sim::kMillisecond);  // re-arm later: single entry moves
  EXPECT_EQ(wheel.size(), 1u);

  std::vector<std::uint32_t> fired;
  wheel.advance(100 * sim::kMillisecond,
                [&](std::uint32_t k) { fired.push_back(k); });
  EXPECT_TRUE(fired.empty());
  wheel.advance(500 * sim::kMillisecond,
                [&](std::uint32_t k) { fired.push_back(k); });
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
  EXPECT_FALSE(wheel.armed(7));
}

TEST(TimerWheel, WorkIsConstantPerTimer) {
  // O(1) amortized: total work (fires + cascade relinks) stays within a
  // small constant of the number of timers, independent of how far apart
  // the deadlines sit. A heap would do O(log n) comparisons per op and a
  // naive scan O(n) per tick; neither fits this bound.
  const sim::Time g = sim::kMillisecond;
  TimerWheel wheel(g);
  constexpr std::uint32_t kTimers = 20000;
  Rng rng(7);
  for (std::uint32_t k = 0; k < kTimers; ++k) {
    // Spread across ~2^21 ticks so every level of the wheel participates.
    const sim::Time deadline =
        static_cast<sim::Time>(rng.uniform(1u << 21) + 1) * g;
    wheel.arm(k, deadline);
  }
  std::size_t fired = 0;
  wheel.advance(static_cast<sim::Time>((1u << 21) + 2) * g,
                [&](std::uint32_t) { ++fired; });
  EXPECT_EQ(fired, kTimers);
  // Each entry cascades at most once per level on its way down.
  EXPECT_LE(wheel.work_done(), static_cast<std::uint64_t>(kTimers) * 4);
}

// --- session-aware pipeline --------------------------------------------------

ServeOptions session_options() {
  ServeOptions options;
  options.name = "session_test";
  options.duration = 300 * sim::kMillisecond;
  options.traffic.rate_tps = 2000;
  options.network.seed = 77;
  options.traffic.seed = 77 ^ 0x9E3779B97F4A7C15ull;
  options.sessions.enabled = true;
  options.sessions.population = 200;
  options.sessions.zipf_s = 1.1;
  options.sessions.rate_classes = 3;
  options.sessions.idle_timeout = 40 * sim::kMillisecond;
  options.sessions.grace = 20 * sim::kMillisecond;
  options.sessions.wheel_granularity = sim::kMillisecond;
  options.sessions.bad_cert_share = 0.05;
  options.sessions.duplicate_rate = 0.01;
  options.sessions.out_of_order_rate = 0.01;
  options.sessions.preconnect = true;
  return options;
}

TEST(ServeSessions, DeterministicRerunIsByteIdentical) {
  const ServeOptions options = session_options();
  const ServeReport a = run_serve(options);
  const ServeReport b = run_serve(options);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_TRUE(a.sessions_enabled);
  EXPECT_GT(a.session_stats.opened, 0u);
}

TEST(ServeSessions, PerClassAccountingPartitionsTraffic) {
  ServeOptions options = session_options();
  const ServeReport report = run_serve(options);
  ASSERT_TRUE(report.sessions_enabled);
  ASSERT_EQ(report.class_stats.size(), 3u);

  std::uint64_t offered = 0, rejected = 0, committed = 0;
  for (const auto& c : report.class_stats) {
    offered += c.offered;
    rejected += c.rejected;
    committed += c.committed;
  }
  EXPECT_EQ(offered, report.offered);
  EXPECT_EQ(rejected, report.rejected_session);
  EXPECT_EQ(committed, report.committed_txs);
  // The zipf mix plus high_priority_share must land traffic in class 0 and
  // at least one lower class.
  EXPECT_GT(report.class_stats[0].offered, 0u);
  EXPECT_GT(report.class_stats[1].offered + report.class_stats[2].offered,
            0u);
  // The forged-handshake share must surface as session rejections.
  EXPECT_GT(report.session_stats.rejected_bad_cert, 0u);
}

TEST(ServeSessions, DisabledSessionsMatchLegacyPipeline) {
  // sessions.enabled = false must leave the pipeline bit-identical to the
  // pre-session behaviour: same report text with the session block absent.
  ServeOptions options = session_options();
  options.sessions = SessionConfig{};
  const ServeReport report = run_serve(options);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.sessions_enabled);
  EXPECT_EQ(report.rejected_session, 0u);
  EXPECT_EQ(report.to_text().find("sessions:"), std::string::npos);
}

TEST(ServeSessions, ConcurrentSigningWithSessionsStaysConsistent) {
  // The TSan-job half of the suite: the session layer authenticates every
  // arrival through the shared Msp validation cache while the harness
  // validator's pool (BM_VALIDATOR_THREADS=4 in that job) verifies each
  // committed block. Any locking mistake in that pairing shows up here under
  // -fsanitize=thread.
  ServeOptions options = session_options();
  options.check_equivalence = true;
  const ServeReport report = run_serve(options);
  EXPECT_TRUE(report.ok()) << report.mismatch;
  EXPECT_TRUE(report.flags_match);
}

}  // namespace
}  // namespace bm::serve
