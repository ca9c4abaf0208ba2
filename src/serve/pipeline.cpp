#include "serve/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>

#include "fabric/timing_model.hpp"
#include "obs/telemetry.hpp"
#include "workload/chaincode.hpp"

namespace bm::serve {

namespace {

/// Per-request lifecycle timestamps; ids index the records array.
struct Record {
  enum class Fate : std::uint8_t {
    kPending = 0,
    kShed,
    kTimedOut,
    kCommitted,
    kRejected,  ///< refused by the session layer (never reached admission)
  };
  Fate fate = Fate::kPending;
  fabric::TxValidationCode flag = fabric::TxValidationCode::kNotValidated;
  int klass = 0;  ///< rate class (per-class breakdown when sessions are on)
  sim::Time arrived = 0;
  sim::Time dispatched = 0;  ///< endorsement service start
  sim::Time endorsed = 0;
  sim::Time ordered = 0;  ///< block cut
  sim::Time committed = 0;
};

/// A cut block waiting for (or in) the commit stage.
struct CutBlock {
  fabric::Block block;
  std::vector<std::uint64_t> members;  ///< request ids, envelope order
};

class ServeRun {
 public:
  ServeRun(const ServeOptions& options, obs::Registry* registry,
           obs::Tracer* tracer)
      : options_(options),
        harness_(sized_network(options)),
        traffic_(options.traffic),
        admission_(sized_admission(options)),
        endorse_(sim_, options.endorse, harness_, admission_),
        class_rng_(options.network.seed ^ 0xC2B2AE3D27D4EB4Full),
        session_rng_(options.network.seed ^ 0xD1B54A32D192ED03ull),
        registry_(registry),
        tracer_(tracer) {
    if (options_.sessions.enabled) {
      sessions_ = std::make_unique<SessionManager>(sim_, harness_.msp(),
                                                   options_.sessions);
      mix_ = std::make_unique<SessionMix>(
          options_.sessions.population, options_.sessions.zipf_s,
          options_.sessions.rate_classes, options_.high_priority_share,
          options_.network.seed ^ 0xA0761D6478BD642Full);
      client_session_.assign(mix_->population(), kNoSession);
      // Client certificate pool: real identities issued by the harness's
      // registered CAs (so they validate), shared round-robin across the
      // population. One rogue CA mints the forged-handshake certs.
      const std::size_t pool =
          options_.sessions.cert_pool > 0 ? options_.sessions.cert_pool : 1;
      cert_pool_.reserve(pool);
      const std::size_t orgs = harness_.msp().org_count();
      for (std::size_t i = 0; i < pool; ++i) {
        const auto* ca = harness_.msp().find_org(
            static_cast<std::uint8_t>(1 + i % orgs));
        cert_pool_.push_back(
            ca->issue(fabric::Role::kClient,
                      static_cast<std::uint8_t>(i % 16),
                      "client" + std::to_string(i) + ".serve")
                .cert);
      }
      const fabric::CertificateAuthority rogue("RogueOrg", 200);
      rogue_cert_ = rogue.issue(fabric::Role::kClient, 0, "rogue.serve").cert;
    }

    // Commit-stage timing model inputs, fixed for the run.
    const auto& policy = harness_.policies().at(harness_.chaincode_name());
    endorsements_per_tx_ = static_cast<int>(policy.principals().size());
    if (options_.network.chaincode == workload::ChaincodeKind::kSmallbank) {
      const workload::SmallbankChaincode cc(options_.network.smallbank);
      db_reads_per_tx_ = cc.avg_reads();
      db_writes_per_tx_ = cc.avg_writes();
    } else {
      const workload::DrmChaincode cc(options_.network.drm);
      db_reads_per_tx_ = cc.avg_reads();
      db_writes_per_tx_ = cc.avg_writes();
    }

    if (tracer_ != nullptr) {
      tracer_->begin_process("serve:" + options_.name);
      lane_admission_ = tracer_->lane("admission");
      lane_ingress_ = tracer_->lane("orderer_ingress");
      lane_commit_ = tracer_->lane("validate_commit");
    }

    if (registry_ != nullptr) {
      // Histograms are observed once per committed transaction, so they are
      // bound here; every counter and gauge comes from publish_state().
      obs::Registry& registry = *registry_;
      const auto buckets = obs::Histogram::latency_ms_buckets();
      h_wait_ = &registry.histogram(
          "serve_admission_wait_ms", buckets,
          "arrival -> endorsement dispatch (committed txs)");
      h_endorse_ = &registry.histogram("serve_endorse_ms", buckets,
                                       "endorsement service time");
      h_order_ = &registry.histogram("serve_order_wait_ms", buckets,
                                     "endorsed -> block cut");
      h_commit_ = &registry.histogram("serve_commit_ms", buckets,
                                      "block cut -> committed");
      h_total_ = &registry.histogram("serve_total_latency_ms", buckets,
                                     "arrival -> committed");
    }

    endorse_.set_completion([this](AdmittedRequest request,
                                   workload::TxDraft draft) {
      on_endorsed(request, std::move(draft));
    });
    endorse_.set_cancelled([this](AdmittedRequest request) {
      records_[request.id].fate = Record::Fate::kTimedOut;
    });
  }

  ServeReport run(obs::Telemetry* telemetry) {
    if (telemetry != nullptr && telemetry->enabled() && registry_ != nullptr) {
      telemetry->attach(sim_, *registry_, tracer_, [this] { publish_state(); });
      flight_ = telemetry->flight();
      endorse_.set_flight_recorder(flight_);
    }
    // Flash-crowd option: handshake the whole population at t = 0, before
    // any arrival, so the run starts from a warm session table.
    if (sessions_ != nullptr && options_.sessions.preconnect)
      for (std::size_t client = 0; client < mix_->population(); ++client)
        ensure_session(client);
    schedule_next_arrival(traffic_.next_arrival());
    sim_.run_until(options_.duration + options_.drain_limit);
    ServeReport report = assemble();
    // The sampler/monitor hold recurring events on sim_, which dies with
    // this ServeRun — settle them (final sample + evaluation) before return.
    if (telemetry != nullptr) telemetry->finish();
    return report;
  }

 private:
  static workload::NetworkOptions sized_network(const ServeOptions& options) {
    workload::NetworkOptions network = options.network;
    // The ingress stage owns block cutting: the orderer's batch size is the
    // ingress max_batch, so a full batch cuts on its last submit and a
    // batch-timeout cut flushes a partial block.
    network.block_size = std::max<std::size_t>(1, options.ingress.max_batch);
    return network;
  }

  static AdmissionConfig sized_admission(const ServeOptions& options) {
    AdmissionConfig admission = options.admission;
    // Session rate classes feed the admission queue's per-class caps, so
    // the queue must have at least that many classes.
    if (options.sessions.enabled)
      admission.classes =
          std::max(admission.classes, options.sessions.rate_classes);
    return admission;
  }

  void schedule_next_arrival(sim::Time at) {
    if (at > options_.duration) return;
    sim_.schedule(at - sim_.now(), [this] {
      on_arrival();
      schedule_next_arrival(traffic_.next_arrival());
    });
  }

  /// The session a client submits on: the cached one if still usable, a
  /// resume() if it slipped into the grace window, otherwise a fresh
  /// handshake (which the bad_cert_share knob occasionally forges).
  /// kNoSession when the handshake was refused.
  SessionId ensure_session(std::size_t client) {
    SessionId id = client_session_[client];
    if (id != kNoSession) {
      if (sessions_->is_active(id)) return id;
      if (sessions_->resume(id, cert_pool_[client % cert_pool_.size()]) ==
          SessionVerdict::kOk)
        return id;
      client_session_[client] = kNoSession;  // purged: fresh handshake below
    }
    const bool forged = options_.sessions.bad_cert_share > 0 &&
                        session_rng_.chance(options_.sessions.bad_cert_share);
    const fabric::Certificate& cert =
        forged ? rogue_cert_ : cert_pool_[client % cert_pool_.size()];
    const SessionManager::OpenResult result =
        sessions_->open(cert, mix_->rate_class_of(client));
    client_session_[client] = result.id;
    return result.id;
  }

  void on_arrival() {
    const std::uint64_t id = records_.size();
    Record& record = records_.emplace_back();
    record.arrived = sim_.now();

    int klass = 0;
    SessionId session = kNoSession;
    if (sessions_ != nullptr) {
      const std::size_t client = mix_->next_client();
      record.klass = mix_->rate_class_of(client);
      session = ensure_session(client);
      if (session == kNoSession) {
        record.fate = Record::Fate::kRejected;
        ++rejected_session_;
        if (flight_ != nullptr)
          flight_->record(obs::FlightStage::kShed, id, "session_rejected");
        return;
      }
      // Well-behaved clients send the expected sequence number; the
      // misbehaviour knobs replay the previous one or skip ahead.
      const std::uint64_t expected = sessions_->expected_seq(session);
      std::uint64_t seq = expected;
      if (options_.sessions.duplicate_rate > 0 && expected > 0 &&
          session_rng_.chance(options_.sessions.duplicate_rate))
        seq = expected - 1;
      else if (options_.sessions.out_of_order_rate > 0 &&
               session_rng_.chance(options_.sessions.out_of_order_rate))
        seq = expected + 1;
      if (sessions_->submit(session, seq) != SessionVerdict::kOk) {
        record.fate = Record::Fate::kRejected;
        ++rejected_session_;
        if (flight_ != nullptr)
          flight_->record(obs::FlightStage::kShed, id, "session_rejected");
        return;
      }
      klass = sessions_->rate_class(session);
      record.klass = klass;
    } else if (admission_.config().classes > 1) {
      klass = class_rng_.chance(options_.high_priority_share) ? 0 : 1;
      record.klass = klass;
    }

    const std::uint64_t rate_sheds_before =
        admission_.stats().shed_rate_limited;
    const AdmissionDecision decision =
        admission_.offer(id, klass, sim_.now(), session);
    if (!decision.admitted()) {
      record.fate = Record::Fate::kShed;
      if (flight_ != nullptr)
        flight_->record(obs::FlightStage::kShed, id,
                        admission_.stats().shed_rate_limited >
                                rate_sheds_before
                            ? "rate_limited"
                            : "queue_full");
      return;
    }
    if (flight_ != nullptr) flight_->record(obs::FlightStage::kAdmitted, id);
    endorse_.pump();
  }

  void on_endorsed(const AdmittedRequest& request, workload::TxDraft draft) {
    Record& record = records_[request.id];
    record.endorsed = sim_.now();
    record.dispatched = sim_.now() - endorse_.service_time(draft);
    if (flight_ != nullptr)
      flight_->record(obs::FlightStage::kEndorsed, request.id);

    if (pending_members_.empty()) {
      batch_opened_ = sim_.now();
      batch_timer_ = sim_.schedule(options_.ingress.batch_timeout,
                                   [this] { cut_batch(); });
    }
    pending_members_.push_back(request.id);
    pending_drafts_.push_back(std::move(draft));
    ingress_high_water_ =
        std::max(ingress_high_water_, pending_members_.size());
    if (pending_members_.size() >= options_.ingress.max_batch) {
      sim_.cancel(batch_timer_);
      cut_batch();
    }
  }

  void cut_batch() {
    if (pending_members_.empty()) return;
    std::vector<std::uint64_t> members = std::move(pending_members_);
    std::vector<workload::TxDraft> drafts = std::move(pending_drafts_);
    pending_members_.clear();
    pending_drafts_.clear();

    // The real ECDSA work, one signing batch (wall clock only: the simulated
    // signing cost was part of the endorsement service time).
    std::vector<Bytes> envelopes = harness_.sign_envelopes(drafts);
    std::optional<fabric::Block> block;
    for (auto& envelope : envelopes)
      block = harness_.submit_envelope(std::move(envelope));
    if (!block) block = harness_.flush_block();  // batch-timeout partial cut

    for (const std::uint64_t id : members) {
      records_[id].ordered = sim_.now();
      if (flight_ != nullptr)
        flight_->record(obs::FlightStage::kOrdered, id);
    }
    if (tracer_ != nullptr)
      tracer_->complete(lane_ingress_,
                        "batch " + std::to_string(block->header.number),
                        "serve", batch_opened_, sim_.now(),
                        {{"txs", static_cast<std::uint64_t>(members.size())}});

    commit_queue_.push_back(CutBlock{std::move(*block), std::move(members)});
    commit_backlog_high_water_ =
        std::max(commit_backlog_high_water_, commit_backlog());
    update_pressure();
    pump_commit();
  }

  std::size_t commit_backlog() const {
    return commit_queue_.size() + (commit_busy_ ? 1 : 0);
  }

  void update_pressure() {
    const std::size_t backlog = commit_backlog();
    if (backlog >= options_.ingress.high_watermark) {
      if (!admission_.pressure() && tracer_ != nullptr)
        tracer_->instant(lane_admission_, "pressure on", "serve", sim_.now());
      admission_.set_pressure(true, sim_.now());
    } else if (backlog <= options_.ingress.low_watermark) {
      if (admission_.pressure() && tracer_ != nullptr)
        tracer_->instant(lane_admission_, "pressure off", "serve", sim_.now());
      admission_.set_pressure(false, sim_.now());
    }
  }

  void pump_commit() {
    if (commit_busy_ || commit_queue_.empty()) return;
    CutBlock cut = std::move(commit_queue_.front());
    commit_queue_.pop_front();
    commit_busy_ = true;

    fabric::SwBlockWorkload shape;
    shape.n_tx = static_cast<int>(cut.block.tx_count());
    shape.endorsements_verified_per_tx = endorsements_per_tx_;
    shape.policy_literals = endorsements_per_tx_;
    shape.db_reads_per_tx = db_reads_per_tx_;
    shape.db_writes_per_tx = db_writes_per_tx_;
    shape.vcpus = options_.validate_vcpus;
    const sim::Time service = fabric::SwTimingModel{}.block_latency(shape);

    sim_.schedule(service, [this, cut = std::move(cut),
                            started = sim_.now()]() mutable {
      const fabric::BlockValidationResult& result =
          harness_.commit_block(cut.block);
      for (std::size_t i = 0; i < cut.members.size(); ++i) {
        Record& record = records_[cut.members[i]];
        record.fate = Record::Fate::kCommitted;
        record.flag = result.flags[i];
        record.committed = sim_.now();
        observe_latencies(record);
        if (flight_ != nullptr)
          flight_->record(obs::FlightStage::kCommitted, cut.members[i]);
      }
      if (flight_ != nullptr)
        flight_->record(obs::FlightStage::kValidated, cut.block.header.number,
                        "block");
      blocks_committed_ += 1;
      valid_txs_ += result.valid_tx_count;
      committed_txs_ += cut.members.size();
      last_commit_at_ = sim_.now();
      if (tracer_ != nullptr)
        tracer_->complete(
            lane_commit_, "block " + std::to_string(cut.block.header.number),
            "serve", started, sim_.now(),
            {{"valid", result.valid_tx_count}});
      if (options_.check_equivalence) blocks_.push_back(std::move(cut.block));

      commit_busy_ = false;
      update_pressure();
      pump_commit();
    });
  }

  /// Live per-stage latency observation at commit time; mirrors the report
  /// breakdown exactly (same records, same unit).
  void observe_latencies(const Record& record) {
    if (h_total_ == nullptr) return;
    constexpr double kMs = static_cast<double>(sim::kMillisecond);
    h_wait_->observe(
        static_cast<double>(record.dispatched - record.arrived) / kMs);
    h_endorse_->observe(
        static_cast<double>(record.endorsed - record.dispatched) / kMs);
    h_order_->observe(
        static_cast<double>(record.ordered - record.endorsed) / kMs);
    h_commit_->observe(
        static_cast<double>(record.committed - record.ordered) / kMs);
    h_total_->observe(
        static_cast<double>(record.committed - record.arrived) / kMs);
  }

  ServeReport assemble() {
    ServeReport report;
    report.offered = records_.size();
    report.admitted = admission_.stats().admitted;
    report.shed_queue_full = admission_.stats().shed_queue_full;
    report.shed_rate_limited = admission_.stats().shed_rate_limited;
    report.timed_out = endorse_.stats().cancelled;
    report.committed_txs = committed_txs_;
    report.valid_txs = valid_txs_;
    report.blocks_committed = blocks_committed_;
    report.admission_depth_high_water = admission_.stats().depth_high_water;
    report.ingress_high_water = ingress_high_water_;
    report.commit_backlog_high_water = commit_backlog_high_water_;
    report.pressure_raised = admission_.stats().pressure_raised;
    report.finished_at = last_commit_at_ > 0 ? last_commit_at_ : sim_.now();

    if (sessions_ != nullptr) {
      report.sessions_enabled = true;
      report.rejected_session = rejected_session_;
      report.session_stats = sessions_->stats();
      report.sessions_active = sessions_->active_count();
      report.sessions_grace = sessions_->grace_count();
      report.session_table = sessions_->table_size();
      report.class_stats.resize(
          static_cast<std::size_t>(admission_.config().classes));
      for (const Record& record : records_) {
        auto& cls = report.class_stats[static_cast<std::size_t>(record.klass)];
        cls.offered += 1;
        switch (record.fate) {
          case Record::Fate::kRejected: cls.rejected += 1; break;
          case Record::Fate::kShed: cls.shed += 1; break;
          case Record::Fate::kTimedOut: cls.timed_out += 1; break;
          case Record::Fate::kCommitted: cls.committed += 1; break;
          case Record::Fate::kPending: break;
        }
      }
    }

    report.offered_tps =
        static_cast<double>(report.offered) /
        (static_cast<double>(options_.duration) / sim::kSecond);
    if (last_commit_at_ > 0)
      report.goodput_tps =
          static_cast<double>(valid_txs_) /
          (static_cast<double>(last_commit_at_) / sim::kSecond);

    report.drained = true;
    for (const Record& record : records_)
      if (record.fate == Record::Fate::kPending) report.drained = false;
    if (!report.drained && flight_ != nullptr)
      flight_->trigger("serve:drain_failure");

    // Per-stage latency breakdown over committed transactions.
    std::vector<double> wait, endorse, order, commit, total;
    for (const Record& record : records_) {
      if (record.fate != Record::Fate::kCommitted) continue;
      constexpr double kMs = static_cast<double>(sim::kMillisecond);
      wait.push_back(
          static_cast<double>(record.dispatched - record.arrived) / kMs);
      endorse.push_back(
          static_cast<double>(record.endorsed - record.dispatched) / kMs);
      order.push_back(
          static_cast<double>(record.ordered - record.endorsed) / kMs);
      commit.push_back(
          static_cast<double>(record.committed - record.ordered) / kMs);
      total.push_back(
          static_cast<double>(record.committed - record.arrived) / kMs);
    }
    report.admission_wait_ms = workload::summarize(wait);
    report.endorse_ms = workload::summarize(endorse);
    report.order_wait_ms = workload::summarize(order);
    report.commit_ms = workload::summarize(commit);
    report.total_ms = workload::summarize(total);

    if (options_.check_equivalence) verify_equivalence(report);
    if (registry_ != nullptr) publish_state();
    if (options_.check_equivalence) report.blocks = std::move(blocks_);
    return report;
  }

  /// Replay the committed chain through an independent software validator:
  /// every admitted-and-committed transaction must carry flags identical to
  /// the harness's (closed-loop) reference result, and the commit-hash
  /// chain must match the reference ledger.
  void verify_equivalence(ServeReport& report) {
    fabric::StateDb db;
    fabric::Ledger ledger;
    fabric::SoftwareValidator validator(harness_.msp(), harness_.policies());
    for (const fabric::Block& block : blocks_) {
      const auto result = validator.validate_and_commit(block, db, ledger);
      // Continuing the chain needs only its tail: re-seed an empty ledger
      // there, so the replay never holds a second copy of every block.
      fabric::Ledger tail;
      tail.open_at(ledger.height(), ledger.last_commit_hash(),
                   ledger.last().block.block_hash());
      ledger = std::move(tail);
      const auto& reference = harness_.reference_result(block.header.number);
      if (result.flags != reference.flags) {
        report.flags_match = false;
        report.mismatch =
            "flags diverge at block " + std::to_string(block.header.number);
        return;
      }
      const auto& expected =
          harness_.reference_ledger().at(block.header.number).commit_hash;
      if (result.commit_hash != expected) {
        report.flags_match = false;
        report.mismatch = "commit hash diverges at block " +
                          std::to_string(block.header.number);
        return;
      }
    }
    report.flags_match = true;
  }

  /// Every serve counter and gauge, read from the stages' own state: the
  /// telemetry refresh before each sample and the end-of-run snapshot.
  void publish_state() {
    obs::Registry& registry = *registry_;
    admission_.publish_metrics(registry, "serve_admission");
    endorse_.publish_metrics(registry, "serve_endorse");
    if (sessions_ != nullptr) {
      sessions_->publish_metrics(registry);
      registry
          .counter("serve_session_rejected_total",
                   "arrivals refused by the session layer")
          .set(rejected_session_);
    }
    // Durable-ledger accounting (bytes appended, fsyncs, snapshot age) when
    // the scenario persists its chain (docs/DURABILITY.md).
    if (harness_.durable() != nullptr)
      harness_.durable()->publish_metrics(registry, "serve_durable");
    registry.counter("serve_txs_committed_total", "transactions committed")
        .set(committed_txs_);
    registry.counter("serve_txs_valid_total", "transactions flagged valid")
        .set(valid_txs_);
    registry.counter("serve_blocks_committed_total", "blocks committed")
        .set(blocks_committed_);
    registry.gauge("serve_ingress_pending", "drafts awaiting a cut")
        .set(static_cast<double>(pending_members_.size()));
    registry
        .gauge("serve_commit_backlog", "blocks queued or in service right now")
        .set(static_cast<double>(commit_backlog()));
    registry
        .gauge("serve_ingress_high_water", "most drafts awaiting a cut")
        .set(static_cast<double>(ingress_high_water_));
    registry
        .gauge("serve_commit_backlog_high_water",
               "most blocks queued or in service at the commit stage")
        .set(static_cast<double>(commit_backlog_high_water_));
  }

  ServeOptions options_;
  sim::Simulation sim_;
  workload::FabricNetworkHarness harness_;
  TrafficGenerator traffic_;
  AdmissionQueue admission_;
  EndorsementService endorse_;
  Rng class_rng_;
  Rng session_rng_;  ///< client-misbehaviour draws, decorrelated from arrivals
  std::unique_ptr<SessionManager> sessions_;  ///< null when sessions disabled
  std::unique_ptr<SessionMix> mix_;
  std::vector<SessionId> client_session_;  ///< per client, kNoSession if none
  std::vector<fabric::Certificate> cert_pool_;
  fabric::Certificate rogue_cert_;
  std::uint64_t rejected_session_ = 0;
  obs::Registry* registry_;
  obs::Tracer* tracer_;
  int lane_admission_ = 0, lane_ingress_ = 0, lane_commit_ = 0;

  // Latency histograms; null without a registry.
  obs::Histogram* h_wait_ = nullptr;
  obs::Histogram* h_endorse_ = nullptr;
  obs::Histogram* h_order_ = nullptr;
  obs::Histogram* h_commit_ = nullptr;
  obs::Histogram* h_total_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;

  int endorsements_per_tx_ = 2;
  double db_reads_per_tx_ = 2.0, db_writes_per_tx_ = 2.0;

  std::vector<Record> records_;
  std::vector<std::uint64_t> pending_members_;
  std::vector<workload::TxDraft> pending_drafts_;
  sim::EventId batch_timer_ = 0;
  sim::Time batch_opened_ = 0;
  std::deque<CutBlock> commit_queue_;
  bool commit_busy_ = false;

  std::uint64_t committed_txs_ = 0, valid_txs_ = 0, blocks_committed_ = 0;
  std::size_t ingress_high_water_ = 0, commit_backlog_high_water_ = 0;
  sim::Time last_commit_at_ = 0;
  std::vector<fabric::Block> blocks_;
};

}  // namespace

std::string ServeReport::to_text() const {
  std::ostringstream out;
  char line[220];
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::snprintf(line, sizeof(line),
                "offered %llu (%.0f tps)\n"
                "admitted %llu | shed %llu (queue %llu, rate %llu) | timed "
                "out %llu\n"
                "committed %llu txs (%llu valid) in %llu blocks | goodput "
                "%.0f tps\n",
                u(offered), offered_tps, u(admitted), u(shed_total()),
                u(shed_queue_full), u(shed_rate_limited), u(timed_out),
                u(committed_txs), u(valid_txs), u(blocks_committed),
                goodput_tps);
  out << line;
  std::snprintf(line, sizeof(line),
                "queues: admission high-water %zu | ingress %zu | commit "
                "backlog %zu | pressure raised %llu\n",
                admission_depth_high_water, ingress_high_water,
                commit_backlog_high_water, u(pressure_raised));
  out << line;
  const auto row = [&](const char* name, const workload::Summary& s) {
    std::snprintf(line, sizeof(line),
                  "  %-16s p50 %8.2f  p99 %8.2f  p99.9 %8.2f  max %8.2f\n",
                  name, s.p50, s.p99, s.p999, s.max);
    out << line;
  };
  out << "latency breakdown (ms, committed txs):\n";
  row("admission wait", admission_wait_ms);
  row("endorse", endorse_ms);
  row("order wait", order_wait_ms);
  row("commit", commit_ms);
  row("total", total_ms);
  if (sessions_enabled) {
    std::snprintf(line, sizeof(line),
                  "sessions: opened %llu | active %zu (grace %zu) | evicted "
                  "%llu | reconnected %llu | purged %llu | table %zu\n",
                  u(session_stats.opened), sessions_active, sessions_grace,
                  u(session_stats.evicted), u(session_stats.reconnected),
                  u(session_stats.purged), session_table);
    out << line;
    std::snprintf(
        line, sizeof(line),
        "session rejects: %llu (bad cert %llu, capacity %llu, seq %llu, "
        "unknown %llu)\n",
        u(rejected_session), u(session_stats.rejected_bad_cert),
        u(session_stats.rejected_capacity),
        u(session_stats.seq_duplicate + session_stats.seq_out_of_order +
          session_stats.seq_overflow),
        u(session_stats.unknown_session));
    out << line;
    for (std::size_t c = 0; c < class_stats.size(); ++c) {
      const ClassStats& cls = class_stats[c];
      std::snprintf(line, sizeof(line),
                    "  class %zu: offered %llu | rejected %llu | shed %llu | "
                    "timed out %llu | committed %llu\n",
                    c, u(cls.offered), u(cls.rejected), u(cls.shed),
                    u(cls.timed_out), u(cls.committed));
      out << line;
    }
  }
  std::snprintf(line, sizeof(line), "drained: %s | flags match: %s%s%s\n",
                drained ? "yes" : "NO", flags_match ? "yes" : "NO",
                mismatch.empty() ? "" : " | ", mismatch.c_str());
  out << line;
  return out.str();
}

ServeReport run_serve(const ServeOptions& options, obs::Registry* registry,
                      obs::Tracer* tracer, obs::Telemetry* telemetry) {
  ServeRun run(options, registry, tracer);
  return run.run(telemetry);
}

}  // namespace bm::serve
