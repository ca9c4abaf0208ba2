#include "serve/session.hpp"

namespace bm::serve {

SessionManager::SessionManager(sim::Simulation& sim, const fabric::Msp& msp,
                               SessionConfig config)
    : sim_(sim),
      msp_(msp),
      config_(std::move(config)),
      wheel_(config_.wheel_granularity) {}

SessionManager::~SessionManager() {
  if (timer_pending_) sim_.cancel(timer_event_);
}

SessionManager::Slot* SessionManager::resolve(SessionId id) {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (s.state == State::kFree || s.generation != generation) return nullptr;
  return &s;
}

const SessionManager::Slot* SessionManager::resolve(SessionId id) const {
  return const_cast<SessionManager*>(this)->resolve(id);
}

SessionManager::OpenResult SessionManager::open(
    const fabric::Certificate& cert, int rate_class) {
  if (!msp_.validate(cert)) {
    ++stats_.rejected_bad_cert;
    return {SessionVerdict::kBadCert, kNoSession};
  }
  if (config_.max_sessions > 0 &&
      active_count_ + grace_count_ >= config_.max_sessions) {
    ++stats_.rejected_capacity;
    return {SessionVerdict::kCapacity, kNoSession};
  }

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.state = State::kActive;
  const int classes = config_.rate_classes > 0 ? config_.rate_classes : 1;
  s.rate_class = static_cast<std::uint8_t>(
      rate_class < 0 ? 0 : (rate_class >= classes ? classes - 1 : rate_class));
  s.next_seq = 0;
  s.last_active = sim_.now();
  s.opener = key_fingerprint(cert);
  ++active_count_;
  ++stats_.opened;
  touch(slot);
  return {SessionVerdict::kOk,
          (static_cast<SessionId>(s.generation) << 32) | slot};
}

SessionVerdict SessionManager::resume(SessionId id,
                                      const fabric::Certificate& cert) {
  Slot* s = resolve(id);
  if (s == nullptr) {
    ++stats_.unknown_session;
    return SessionVerdict::kUnknownSession;
  }
  if (key_fingerprint(cert) != s->opener) {
    ++stats_.rejected_bad_cert;
    return SessionVerdict::kBadCert;
  }
  if (s->state == State::kActive) return SessionVerdict::kOk;  // no-op
  if (!msp_.validate(cert)) {
    ++stats_.rejected_bad_cert;
    return SessionVerdict::kBadCert;
  }
  s->state = State::kActive;
  s->last_active = sim_.now();
  --grace_count_;
  ++active_count_;
  ++stats_.reconnected;
  touch(slot_of(id));
  return SessionVerdict::kOk;
}

SessionVerdict SessionManager::submit(SessionId id, std::uint64_t seq) {
  Slot* s = resolve(id);
  if (s == nullptr) {
    ++stats_.unknown_session;
    return SessionVerdict::kUnknownSession;
  }
  if (s->state == State::kGrace) return SessionVerdict::kIdleEvicted;
  if (s->next_seq >= config_.seq_limit) {
    ++stats_.seq_overflow;
    return SessionVerdict::kSeqOverflow;
  }
  if (seq < s->next_seq) {
    ++stats_.seq_duplicate;
    return SessionVerdict::kDuplicateSeq;
  }
  if (seq > s->next_seq) {
    ++stats_.seq_out_of_order;
    return SessionVerdict::kOutOfOrderSeq;
  }
  ++s->next_seq;
  s->last_active = sim_.now();
  touch(slot_of(id));
  return SessionVerdict::kOk;
}

std::uint64_t SessionManager::expected_seq(SessionId id) const {
  const Slot* s = resolve(id);
  return s != nullptr ? s->next_seq : 0;
}

int SessionManager::rate_class(SessionId id) const {
  const Slot* s = resolve(id);
  return s != nullptr ? s->rate_class : 0;
}

bool SessionManager::is_active(SessionId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->state == State::kActive;
}

void SessionManager::touch(std::uint32_t slot) {
  wheel_.arm(slot, sim_.now() + config_.idle_timeout);
  reschedule();
}

void SessionManager::on_expire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.state == State::kActive) {
    s.state = State::kGrace;
    --active_count_;
    ++grace_count_;
    ++stats_.evicted;
    if (config_.grace > 0)
      wheel_.arm(slot, sim_.now() + config_.grace);
    else
      purge(slot);
  } else if (s.state == State::kGrace) {
    purge(slot);
  }
}

void SessionManager::purge(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.state = State::kFree;
  ++s.generation;  // stale SessionIds now resolve to kUnknownSession
  --grace_count_;
  ++stats_.purged;
  free_slots_.push_back(slot);
}

void SessionManager::reschedule() {
  const sim::Time due = wheel_.next_due();
  if (due == TimerWheel::kNever) {
    if (timer_pending_) {
      sim_.cancel(timer_event_);
      timer_pending_ = false;
    }
    return;
  }
  if (timer_pending_ && timer_at_ <= due) return;  // current wakeup is fine
  if (timer_pending_) sim_.cancel(timer_event_);
  const sim::Time delay = due > sim_.now() ? due - sim_.now() : 0;
  timer_at_ = due;
  timer_pending_ = true;
  timer_event_ = sim_.schedule(delay, [this] {
    timer_pending_ = false;
    wheel_.advance(sim_.now(), [this](TimerWheel::Key slot) {
      on_expire(slot);
    });
    reschedule();
  });
}

void SessionManager::publish_metrics(obs::Registry& registry) const {
  registry.gauge("serve_sessions_active", "sessions currently active")
      .set(static_cast<double>(active_count_));
  registry
      .counter("serve_sessions_opened_total",
               "sessions opened (successful handshakes)")
      .set(stats_.opened);
  registry
      .counter("serve_sessions_evicted_total",
               "sessions idle-evicted into the grace window")
      .set(stats_.evicted);
  registry
      .counter("serve_sessions_reconnected_total",
               "sessions resumed within the grace window")
      .set(stats_.reconnected);
  registry
      .counter("serve_sessions_rejected_bad_cert_total",
               "handshakes rejected by MSP validation")
      .set(stats_.rejected_bad_cert);
  registry
      .counter("serve_sessions_rejected_capacity_total",
               "handshakes rejected by the session cap")
      .set(stats_.rejected_capacity);
  registry
      .counter("serve_session_seq_rejected_total",
               "requests rejected by sequence-number checks")
      .set(stats_.seq_duplicate + stats_.seq_out_of_order +
           stats_.seq_overflow);
  registry
      .counter("serve_sessions_purged_total",
               "sessions purged after the grace window expired")
      .set(stats_.purged);
}

}  // namespace bm::serve
