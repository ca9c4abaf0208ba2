// Session/identity lifecycle layer for the serving front end.
//
// The paper's deployment model is a network-attached peer absorbing traffic
// from many Fabric clients, each bound to an MSP identity. This layer gives
// the open-loop pipeline that client model: every request belongs to an
// authenticated session with a monotone sequence number, a rate class that
// feeds the admission queue's per-class caps, and an idle timer on an O(1)
// hierarchical wheel (serve/timer_wheel.hpp) so 10^6 concurrent sessions
// never cost a per-tick scan.
//
// Lifecycle:
//
//            open(cert)                     idle_timeout
//   [free] -------------> [active] ----------------------> [grace]
//     ^                      ^                                |
//     |                      |  resume(id, cert) within       |
//     |                      +------ grace window ------------+
//     |                                                       |
//     +------------------- grace expired (purge) -------------+
//
// A session evicted for idleness keeps its sequence state for `grace`;
// reconnecting within the window resumes exactly where it left off, after
// which the old SessionId is forgotten (generation bump) and a reconnect
// must perform a fresh handshake.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fabric/identity.hpp"
#include "obs/metrics.hpp"
#include "serve/timer_wheel.hpp"
#include "sim/simulation.hpp"

namespace bm::serve {

/// Opaque session handle: (generation << 32) | slot. Never 0 for a live
/// session, so 0 doubles as "no session yet".
using SessionId = std::uint64_t;
constexpr SessionId kNoSession = 0;

enum class SessionVerdict : std::uint8_t {
  kOk = 0,
  kBadCert,         ///< failed MSP validation, or resumed with another key
  kCapacity,        ///< session table full
  kUnknownSession,  ///< stale id: never opened, or purged after grace
  kIdleEvicted,     ///< session is in the grace window; resume() first
  kDuplicateSeq,    ///< seq below the next expected (replay)
  kOutOfOrderSeq,   ///< seq above the next expected (gap)
  kSeqOverflow,     ///< sequence space exhausted (seq_limit reached)
};

/// Scenario knobs for the session layer. The client-model knobs
/// (bad_cert_share, duplicate_rate, out_of_order_rate, zipf_s, preconnect)
/// shape the synthetic population the pipeline drives through the manager;
/// the rest configure the manager itself.
struct SessionConfig {
  bool enabled = false;          ///< off = PR5-compatible anonymous arrivals
  std::size_t population = 1000; ///< configured client population
  std::size_t max_sessions = 0;  ///< concurrent session cap; 0 = unbounded
  sim::Time idle_timeout = 30 * sim::kSecond;
  sim::Time grace = 10 * sim::kSecond;  ///< reconnect window after eviction
  sim::Time wheel_granularity = 10 * sim::kMillisecond;
  int rate_classes = 2;
  /// Sequence space per session; submits past this return kSeqOverflow.
  std::uint64_t seq_limit = std::numeric_limits<std::uint32_t>::max();
  std::size_t cert_pool = 32;  ///< distinct client certs shared by the population

  // Client model (consumed by serve/pipeline, not the manager):
  double zipf_s = 0.0;           ///< session-population skew; 0 = uniform
  double bad_cert_share = 0.0;   ///< handshakes presenting a forged cert
  double duplicate_rate = 0.0;   ///< requests replaying the previous seq
  double out_of_order_rate = 0.0;///< requests skipping a seq
  bool preconnect = false;       ///< open the whole population at t = 0
};

struct SessionStats {
  std::uint64_t opened = 0;
  std::uint64_t rejected_bad_cert = 0;
  std::uint64_t rejected_capacity = 0;
  std::uint64_t evicted = 0;
  std::uint64_t reconnected = 0;
  std::uint64_t purged = 0;
  std::uint64_t seq_duplicate = 0;
  std::uint64_t seq_out_of_order = 0;
  std::uint64_t seq_overflow = 0;
  std::uint64_t unknown_session = 0;
};

/// Owns the session table and its idle timers. Single-threaded like the
/// rest of the DES; handshake certificate validation delegates to the
/// (thread-safe) Msp. All operations are O(1); memory is linear in the
/// peak concurrent session count, not in events.
class SessionManager {
 public:
  struct OpenResult {
    SessionVerdict verdict = SessionVerdict::kOk;
    SessionId id = kNoSession;
  };

  SessionManager(sim::Simulation& sim, const fabric::Msp& msp,
                 SessionConfig config);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Handshake: validate `cert` against the MSP and allocate a session in
  /// `rate_class` (clamped to [0, rate_classes)).
  OpenResult open(const fabric::Certificate& cert, int rate_class);

  /// Reconnect an evicted session within its grace window; sequence state
  /// resumes. kUnknownSession once the grace window has expired. kBadCert
  /// unless `cert` carries the public key that opened the session and, to
  /// leave the grace window, validates against the MSP.
  SessionVerdict resume(SessionId id, const fabric::Certificate& cert);

  /// Submit a request with an explicit sequence number; kOk advances the
  /// expected sequence and refreshes the idle timer.
  SessionVerdict submit(SessionId id, std::uint64_t seq);

  /// The sequence number the manager expects next (what a well-behaved
  /// client should send); 0 for unknown sessions.
  std::uint64_t expected_seq(SessionId id) const;

  /// Rate class a session was opened in; 0 for unknown sessions.
  int rate_class(SessionId id) const;

  bool is_active(SessionId id) const;

  std::size_t active_count() const { return active_count_; }
  std::size_t grace_count() const { return grace_count_; }
  /// Slots ever allocated — the memory footprint driver.
  std::size_t table_size() const { return slots_.size(); }
  const SessionStats& stats() const { return stats_; }
  const TimerWheel& wheel() const { return wheel_; }

  /// Snapshot serve_sessions_active and the session counters (idempotent;
  /// the telemetry sampler calls it before every sample).
  void publish_metrics(obs::Registry& registry) const;

 private:
  enum class State : std::uint8_t { kFree, kActive, kGrace };

  struct Slot {
    std::uint32_t generation = 1;
    State state = State::kFree;
    std::uint8_t rate_class = 0;
    std::uint64_t next_seq = 0;
    sim::Time last_active = 0;
    std::uint64_t opener = 0;  ///< key_fingerprint of the opening cert
  };

  Slot* resolve(SessionId id);
  const Slot* resolve(SessionId id) const;
  static std::uint32_t slot_of(SessionId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFull);
  }
  /// 64 bits of the certificate's public key: names the identity that
  /// opened a session without hashing anything per handshake.
  static std::uint64_t key_fingerprint(const fabric::Certificate& cert) {
    return cert.public_key.point.x.w[0];
  }
  void touch(std::uint32_t slot);
  void on_expire(std::uint32_t slot);
  void purge(std::uint32_t slot);
  void reschedule();

  sim::Simulation& sim_;
  const fabric::Msp& msp_;
  SessionConfig config_;
  TimerWheel wheel_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_ = 0;
  std::size_t grace_count_ = 0;
  SessionStats stats_;

  bool timer_pending_ = false;
  sim::EventId timer_event_ = 0;
  sim::Time timer_at_ = 0;
};

}  // namespace bm::serve
