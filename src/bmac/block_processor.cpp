#include "bmac/block_processor.hpp"

#include <cassert>

#include "obs/probes.hpp"

namespace bm::bmac {

BlockProcessor::BlockProcessor(sim::Simulation& sim, HwConfig config,
                               std::map<std::string, PolicyCircuit> policies)
    : sim_(sim),
      config_(config),
      policies_(std::move(policies)),
      block_fifo_(sim, 8, "block_fifo"),
      tx_fifo_(sim, config.max_block_txs * 2, "tx_fifo"),
      ends_fifo_(sim, config.max_block_txs * 8, "ends_fifo"),
      rdset_fifo_(sim, config.max_block_txs * 16, "rdset_fifo"),
      wrset_fifo_(sim, config.max_block_txs * 16, "wrset_fifo"),
      verify_to_validate_(sim, 1, "verify_to_validate"),
      collector_ctl_(sim, 4, "collector_ctl"),
      mvcc_ctl_(sim, 4, "mvcc_ctl"),
      free_validators_(sim, static_cast<std::size_t>(config.tx_validators) + 1,
                       "free_validators"),
      assignment_order_(sim, config.max_block_txs * 2, "assignment_order"),
      collected_(sim, 4, "collected"),
      block_done_(sim, 1, "block_done"),
      res_fifo_(sim, 4, "res_fifo"),
      reg_map_(sim, 1, "reg_map"),
      statedb_(config.db_capacity) {
  assert(config_.tx_validators >= 1);
  assert(config_.engines_per_vscc >= 1);
  // Register-file width: highest org index referenced by any circuit. 16
  // registers cover every configuration in the paper.
  policy_org_count_ = 16;
  verify_engine_busy_.assign(static_cast<std::size_t>(config_.tx_validators),
                             0);
  vscc_engine_busy_.assign(static_cast<std::size_t>(config_.tx_validators), 0);
  validator_in_.reserve(config_.tx_validators);
  verify_to_vscc_.reserve(config_.tx_validators);
  validator_out_.reserve(config_.tx_validators);
  for (int v = 0; v < config_.tx_validators; ++v) {
    validator_in_.push_back(std::make_unique<sim::Fifo<DispatchedTx>>(
        sim, 1, "validator_in_" + std::to_string(v)));
    verify_to_vscc_.push_back(std::make_unique<sim::Fifo<VerifiedTx>>(
        sim, 1, "verify_to_vscc_" + std::to_string(v)));
    validator_out_.push_back(std::make_unique<sim::Fifo<ValidatedTx>>(
        sim, 1, "validator_out_" + std::to_string(v)));
  }
}

void BlockProcessor::attach_observability(obs::Registry* registry,
                                          obs::Tracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry_ != nullptr) {
    block_latency_ms_ = &registry_->histogram(
        "bmac_block_validation_latency_ms",
        obs::Histogram::latency_ms_buckets(),
        "block received -> all transactions validated and committed");
    tx_latency_us_ = &registry_->histogram(
        "bmac_tx_validation_latency_us", obs::Histogram::latency_us_buckets(),
        "transaction dispatch -> vscc verdict");
  }
  if (tracer_ != nullptr) {
    lanes_.block_verify = tracer_->lane("block_verify");
    lanes_.scheduler = tracer_->lane("tx_scheduler");
    lanes_.tx_verify.clear();
    lanes_.tx_vscc.clear();
    for (int v = 0; v < config_.tx_validators; ++v) {
      lanes_.tx_verify.push_back(
          tracer_->lane("tx_verify_" + std::to_string(v)));
      lanes_.tx_vscc.push_back(tracer_->lane("tx_vscc_" + std::to_string(v)));
    }
    lanes_.collector = tracer_->lane("tx_collector");
    lanes_.mvcc = tracer_->lane("tx_mvcc_commit");
    lanes_.monitor = tracer_->lane("block_monitor");
    lanes_.reg_map = tracer_->lane("reg_map");
    // One lane per probed FIFO so stall spans never overlap (all these
    // FIFOs have a single producer).
    obs::attach_fifo_trace(sim_, block_fifo_, tracer_,
                           tracer_->lane("block_fifo"));
    obs::attach_fifo_trace(sim_, tx_fifo_, tracer_, tracer_->lane("tx_fifo"));
    obs::attach_fifo_trace(sim_, ends_fifo_, tracer_,
                           tracer_->lane("ends_fifo"));
    obs::attach_fifo_trace(sim_, rdset_fifo_, tracer_,
                           tracer_->lane("rdset_fifo"));
    obs::attach_fifo_trace(sim_, wrset_fifo_, tracer_,
                           tracer_->lane("wrset_fifo"));
    obs::attach_fifo_trace(sim_, res_fifo_, tracer_,
                           tracer_->lane("res_fifo"));
  }
}

void BlockProcessor::publish_metrics() {
  if (registry_ == nullptr) return;
  registry_->counter("bmac_blocks_validated_total", "blocks processed")
      .set(monitor_.blocks);
  registry_->counter("bmac_txs_validated_total", "transactions processed")
      .set(monitor_.transactions);
  registry_->counter("bmac_txs_valid_total", "transactions flagged valid")
      .set(monitor_.valid_transactions);
  registry_
      ->counter("bmac_ecdsa_executed_total",
                "signature verifications run by engines")
      .set(monitor_.ecdsa_executed);
  registry_
      ->counter("bmac_ecdsa_skipped_total",
                "verifications avoided by short-circuit / invalid-skip")
      .set(monitor_.ecdsa_skipped);
  const auto elapsed = static_cast<double>(sim_.now());
  const double engines_per_validator = 1.0 + config_.engines_per_vscc;
  auto utilization = [&](double busy, double engines) {
    return elapsed > 0 ? busy / (elapsed * engines) : 0.0;
  };
  double total_busy = static_cast<double>(block_engine_busy_);
  double total_engines = 1.0;
  registry_
      ->gauge("bmac_engine_utilization_block_verify",
              "busy fraction of the dedicated block_verify ecdsa_engine")
      .set(utilization(static_cast<double>(block_engine_busy_), 1.0));
  for (int v = 0; v < config_.tx_validators; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const double busy = static_cast<double>(verify_engine_busy_[i]) +
                        static_cast<double>(vscc_engine_busy_[i]);
    registry_
        ->gauge("bmac_engine_utilization_v" + std::to_string(v),
                "busy fraction of validator engines (tx_verify + tx_vscc)")
        .set(utilization(busy, engines_per_validator));
    total_busy += busy;
    total_engines += engines_per_validator;
  }
  registry_
      ->gauge("bmac_engine_utilization",
              "aggregate ecdsa-engine busy fraction across the machine")
      .set(utilization(total_busy, total_engines));

  obs::publish_fifo_metrics(*registry_, block_fifo_, "bmac_fifo");
  obs::publish_fifo_metrics(*registry_, tx_fifo_, "bmac_fifo");
  obs::publish_fifo_metrics(*registry_, ends_fifo_, "bmac_fifo");
  obs::publish_fifo_metrics(*registry_, rdset_fifo_, "bmac_fifo");
  obs::publish_fifo_metrics(*registry_, wrset_fifo_, "bmac_fifo");
  obs::publish_fifo_metrics(*registry_, res_fifo_, "bmac_fifo");
  obs::publish_fifo_metrics(*registry_, reg_map_, "bmac_fifo");

  // Standard bounded-cache metric set (docs/OBSERVABILITY.md):
  // capacity / entries gauges + hits / misses / evictions counters.
  registry_
      ->gauge("bmac_statedb_capacity", "on-chip store entry capacity")
      .set(static_cast<double>(statedb_.capacity()));
  registry_
      ->gauge("bmac_statedb_entries", "on-chip store fill")
      .set(static_cast<double>(statedb_.size()));
  registry_
      ->counter("bmac_statedb_hits_total",
                "accesses served by the on-chip tier")
      .set(statedb_.hits());
  registry_
      ->counter("bmac_statedb_misses_total",
                "accesses that fell through to the host tier")
      .set(statedb_.misses());
  registry_
      ->counter("bmac_statedb_overflows_total",
                "writes dropped by the on-chip store")
      .set(statedb_.overflows());
  registry_
      ->counter("bmac_statedb_evictions_total", "entries evicted to the host")
      .set(statedb_.evictions());
  registry_
      ->gauge("sim_event_queue_peak", "event-queue high-water mark")
      .set(static_cast<double>(sim_.max_queue_depth()));
  registry_->counter("sim_events_executed_total", "simulation events run")
      .set(sim_.events_executed());
}

void BlockProcessor::start() {
  sim_.spawn(block_verify_proc());
  sim_.spawn(tx_scheduler_proc());
  for (int v = 0; v < config_.tx_validators; ++v) {
    sim_.spawn(tx_verify_proc(v));
    sim_.spawn(tx_vscc_proc(v));
  }
  sim_.spawn(tx_collector_proc());
  sim_.spawn(tx_mvcc_commit_proc());
  sim_.spawn(reg_map_proc());
}

// --- Stage 1 of the block-level pipeline ------------------------------------
sim::Process BlockProcessor::block_verify_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    BlockEntry entry = co_await block_fifo_.get();
    BlockCtl ctl;
    ctl.block_num = entry.block_num;
    ctl.tx_count = entry.tx_count;
    ctl.stats.received_at = sim_.now();
    ctl.stats.verify_start = sim_.now();
    // Dedicated ecdsa_engine: blocks are verified as soon as they arrive.
    co_await sim_.delay(t.ecdsa_verify);
    block_engine_busy_ += t.ecdsa_verify;
    ctl.block_valid = entry.verify.execute();
    ctl.stats.ecdsa_executed = 1;
    ctl.stats.verify_end = sim_.now();
    if (tracer_ != nullptr) {
      tracer_->complete(lanes_.block_verify, "block_verify", "ecdsa",
                        ctl.stats.verify_start, ctl.stats.verify_end,
                        {{"block", ctl.block_num}, {"valid", ctl.block_valid}});
    }
    co_await verify_to_validate_.put(ctl);
  }
}

// --- Stage 2: block_validate ------------------------------------------------
sim::Process BlockProcessor::tx_scheduler_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    BlockCtl ctl = co_await verify_to_validate_.get();
    ctl.stats.validate_start = sim_.now();
    const sim::Time dispatch_start = sim_.now();
    co_await collector_ctl_.put(ctl);
    co_await mvcc_ctl_.put(ctl);
    for (std::uint32_t seq = 0; seq < ctl.tx_count; ++seq) {
      DispatchedTx work;
      work.block_valid = ctl.block_valid;
      co_await sim_.delay(t.fifo_read);
      work.tx = co_await tx_fifo_.get();
      // Read exactly this transaction's endorsements from ends_fifo.
      work.ends.reserve(work.tx.endorsement_count);
      for (std::uint16_t i = 0; i < work.tx.endorsement_count; ++i) {
        co_await sim_.delay(t.fifo_read);
        work.ends.push_back(co_await ends_fifo_.get());
      }
      // Issue to the first free tx_verify instance (work-conserving).
      const int validator = co_await free_validators_.get();
      co_await sim_.delay(t.scheduler_dispatch);
      work.dispatched_at = sim_.now();
      co_await assignment_order_.put(validator);
      co_await validator_in_[static_cast<std::size_t>(validator)]->put(
          std::move(work));
    }
    if (tracer_ != nullptr) {
      tracer_->complete(lanes_.scheduler, "dispatch", "pipeline",
                        dispatch_start, sim_.now(),
                        {{"block", ctl.block_num},
                         {"txs", static_cast<std::uint64_t>(ctl.tx_count)}});
    }
    // block_validate holds the block until it is fully processed; the next
    // block stays in the block_verify stage meanwhile (2-stage pipeline).
    co_await block_done_.get();
  }
}

sim::Process BlockProcessor::tx_verify_proc(int validator) {
  const HwTimingModel& t = config_.timing;
  auto& in = *validator_in_[static_cast<std::size_t>(validator)];
  auto& out = *verify_to_vscc_[static_cast<std::size_t>(validator)];
  co_await free_validators_.put(validator);
  for (;;) {
    DispatchedTx work = co_await in.get();
    VerifiedTx result;
    result.creator_ok = false;
    const sim::Time verify_start = sim_.now();
    if (work.block_valid && work.tx.verify.well_formed) {
      // Dedicated ecdsa_engine for this tx_verify instance.
      co_await sim_.delay(t.ecdsa_verify);
      verify_engine_busy_[static_cast<std::size_t>(validator)] +=
          t.ecdsa_verify;
      result.creator_ok = work.tx.verify.execute();
      result.executed += 1;
    } else {
      // Skip mechanism: no engine cycles for already-invalid transactions.
      result.skipped += 1;
    }
    if (tracer_ != nullptr) {
      tracer_->complete(
          lanes_.tx_verify[static_cast<std::size_t>(validator)], "tx_verify",
          "ecdsa", verify_start, sim_.now(),
          {{"tx", static_cast<std::uint64_t>(work.tx.tx_seq)},
           {"ok", result.creator_ok}});
    }
    result.work = std::move(work);
    co_await out.put(std::move(result));
    // Ready for the next transaction while tx_vscc works on this one.
    co_await free_validators_.put(validator);
  }
}

sim::Process BlockProcessor::tx_vscc_proc(int validator) {
  const HwTimingModel& t = config_.timing;
  auto& in = *verify_to_vscc_[static_cast<std::size_t>(validator)];
  auto& out = *validator_out_[static_cast<std::size_t>(validator)];
  RegisterFile regs(policy_org_count_);
  const auto engines = static_cast<std::size_t>(config_.engines_per_vscc);

  for (;;) {
    VerifiedTx verified = co_await in.get();
    const DispatchedTx& work = verified.work;
    const sim::Time vscc_start = sim_.now();

    ValidatedTx result;
    result.tx_seq = work.tx.tx_seq;
    const sim::Time dispatched_at = work.dispatched_at;
    result.read_count = work.tx.read_count;
    result.write_count = work.tx.write_count;
    result.executed = verified.executed;
    result.skipped = verified.skipped;

    const auto ends_total = static_cast<std::uint32_t>(work.ends.size());
    if (!work.block_valid) {
      result.code = fabric::TxValidationCode::kNotValidated;
      result.skipped += ends_total;
    } else if (!work.tx.parse_ok) {
      result.code = fabric::TxValidationCode::kBadPayload;
      result.skipped += ends_total;
    } else if (!verified.creator_ok) {
      result.code = fabric::TxValidationCode::kBadCreatorSignature;
      result.skipped += ends_total;  // endorsements discarded
    } else {
      const auto policy = policies_.find(work.tx.chaincode_id);
      if (policy == policies_.end()) {
        result.code = fabric::TxValidationCode::kInvalidEndorserTransaction;
        result.skipped += ends_total;
      } else {
        // ends_scheduler: issue endorsements to the engine pool, checking
        // the policy circuit after each round; stop (and drop in-flight
        // work) as soon as the policy is satisfied.
        regs.clear();
        bool satisfied = false;
        std::size_t next = 0;
        while ((!satisfied || !config_.short_circuit_vscc) &&
               next < work.ends.size()) {
          const std::size_t batch =
              std::min(engines, work.ends.size() - next);
          co_await sim_.delay(t.ecdsa_verify);  // engines run in parallel
          vscc_engine_busy_[static_cast<std::size_t>(validator)] +=
              static_cast<sim::Time>(batch) * t.ecdsa_verify;
          for (std::size_t i = 0; i < batch; ++i) {
            const EndsEntry& endorsement = work.ends[next + i];
            const bool ok = endorsement.verify.execute();
            co_await sim_.delay(t.policy_update);
            regs.set(endorsement.endorser, ok);
            result.executed += 1;
          }
          next += batch;
          satisfied = policy->second.evaluate(regs);
        }
        result.skipped +=
            static_cast<std::uint32_t>(work.ends.size() - next);
        result.code = satisfied
                          ? fabric::TxValidationCode::kValid
                          : fabric::TxValidationCode::kEndorsementPolicyFailure;
      }
    }
    result.latency = sim_.now() - dispatched_at;
    if (tracer_ != nullptr) {
      tracer_->complete(
          lanes_.tx_vscc[static_cast<std::size_t>(validator)], "tx_vscc",
          "ecdsa", vscc_start, sim_.now(),
          {{"tx", static_cast<std::uint64_t>(result.tx_seq)},
           {"executed", static_cast<std::uint64_t>(result.executed)},
           {"skipped", static_cast<std::uint64_t>(result.skipped)}});
    }
    co_await out.put(std::move(result));
  }
}

sim::Process BlockProcessor::tx_collector_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    BlockCtl ctl = co_await collector_ctl_.get();
    const sim::Time collect_start = sim_.now();
    for (std::uint32_t seq = 0; seq < ctl.tx_count; ++seq) {
      // Collect strictly in dispatch (= program) order: take the validator
      // that got tx `seq`, then wait for that validator's output.
      const int validator = co_await assignment_order_.get();
      ValidatedTx tx =
          co_await validator_out_[static_cast<std::size_t>(validator)]->get();
      assert(tx.tx_seq == seq);
      co_await sim_.delay(t.collector_per_tx);
      co_await collected_.put(std::move(tx));
    }
    if (tracer_ != nullptr) {
      tracer_->complete(lanes_.collector, "collect", "pipeline", collect_start,
                        sim_.now(),
                        {{"block", ctl.block_num},
                         {"txs", static_cast<std::uint64_t>(ctl.tx_count)}});
    }
  }
}

sim::Process BlockProcessor::tx_mvcc_commit_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    BlockCtl ctl = co_await mvcc_ctl_.get();
    ResultEntry result;
    result.block_num = ctl.block_num;
    result.block_valid = ctl.block_valid;
    result.flags.assign(ctl.tx_count,
                        fabric::TxValidationCode::kNotValidated);
    result.stats = ctl.stats;
    const sim::Time mvcc_start = sim_.now();
    std::uint64_t block_valid_txs = 0;

    for (std::uint32_t seq = 0; seq < ctl.tx_count; ++seq) {
      ValidatedTx tx = co_await collected_.get();
      result.stats.ecdsa_executed += tx.executed;
      result.stats.ecdsa_skipped += tx.skipped;
      result.stats.tx_latency_sum += tx.latency;
      co_await sim_.delay(t.mvcc_per_tx);

      bool valid = tx.code == fabric::TxValidationCode::kValid;
      // mvcc: re-read every read-set key and compare versions. Entries are
      // drained from rdset_fifo even when the check is skipped.
      for (std::uint16_t i = 0; i < tx.read_count; ++i) {
        co_await sim_.delay(t.fifo_read);
        RdsetEntry read = co_await rdset_fifo_.get();
        if (!valid) continue;
        const bool match =
            statedb_.version_matches(read.key, read.expected_version);
        co_await sim_.delay(statedb_.last_tier() == AccessTier::kHost
                                ? t.db_op_host
                                : t.db_op);
        if (!match) {
          valid = false;
          tx.code = fabric::TxValidationCode::kMvccReadConflict;
        }
      }
      // commit: apply the write set (skipped for invalid transactions, but
      // wrset entries are still drained).
      const fabric::Version version{ctl.block_num, seq};
      for (std::uint16_t i = 0; i < tx.write_count; ++i) {
        co_await sim_.delay(t.fifo_read);
        WrsetEntry write = co_await wrset_fifo_.get();
        if (!valid) continue;
        statedb_.write(write.key, std::move(write.value), version);
        co_await sim_.delay(statedb_.last_tier() == AccessTier::kHost
                                ? t.db_op_host
                                : t.db_op);
      }
      result.flags[seq] = tx.code;
      if (valid) ++block_valid_txs;
      if (tx_latency_us_ != nullptr) {
        tx_latency_us_->observe(static_cast<double>(tx.latency) / 1000.0);
      }
    }

    result.stats.validate_end = sim_.now();
    // The block_monitor registers move once per block, so a mid-block
    // read (the telemetry sampler's) never sees half a block.
    ++monitor_.blocks;
    monitor_.transactions += ctl.tx_count;
    monitor_.valid_transactions += block_valid_txs;
    monitor_.ecdsa_executed += result.stats.ecdsa_executed;
    monitor_.ecdsa_skipped += result.stats.ecdsa_skipped;
    monitor_.total_block_latency +=
        result.stats.validate_end - result.stats.validate_start;
    if (block_latency_ms_ != nullptr) {
      block_latency_ms_->observe(
          static_cast<double>(result.stats.validate_end -
                              result.stats.received_at) /
          1e6);
    }
    if (tracer_ != nullptr) {
      tracer_->complete(lanes_.mvcc, "mvcc_commit", "pipeline", mvcc_start,
                        sim_.now(),
                        {{"block", ctl.block_num},
                         {"txs", static_cast<std::uint64_t>(ctl.tx_count)}});
      // One span per block on the monitor lane, covering the whole
      // block_validate window; these serialize via the block_done_ token.
      tracer_->complete(
          lanes_.monitor, "block_validate", "monitor",
          result.stats.validate_start, result.stats.validate_end,
          {{"block", ctl.block_num},
           {"txs", static_cast<std::uint64_t>(ctl.tx_count)},
           {"valid", block_valid_txs},
           {"ecdsa_executed",
            static_cast<std::uint64_t>(result.stats.ecdsa_executed)},
           {"ecdsa_skipped",
            static_cast<std::uint64_t>(result.stats.ecdsa_skipped)}});
    }
    co_await res_fifo_.put(std::move(result));
    co_await block_done_.put(0);
  }
}

sim::Process BlockProcessor::reg_map_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    ResultEntry result = co_await res_fifo_.get();
    co_await sim_.delay(t.result_write);
    if (tracer_ != nullptr) {
      tracer_->instant(lanes_.reg_map, "result_ready", "monitor", sim_.now(),
                       {{"block", result.block_num}});
    }
    // reg_map_ has capacity 1: writing blocks until the host (CPU) has read
    // the previous block's result.
    co_await reg_map_.put(std::move(result));
  }
}

}  // namespace bm::bmac
