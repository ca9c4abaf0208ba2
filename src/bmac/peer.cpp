#include "bmac/peer.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/probes.hpp"

namespace bm::bmac {

std::map<std::string, PolicyCircuit> compile_policies(
    const std::map<std::string, fabric::EndorsementPolicy>& policies,
    const fabric::Msp& msp) {
  std::map<std::string, PolicyCircuit> circuits;
  for (const auto& [chaincode, policy] : policies)
    circuits.emplace(chaincode, PolicyCircuit::compile(policy, msp));
  return circuits;
}

BmacPeer::BmacPeer(
    sim::Simulation& sim, const fabric::Msp& msp, HwConfig config,
    const std::map<std::string, fabric::EndorsementPolicy>& policies)
    : sim_(sim),
      config_(config),
      rx_queue_(sim, 65536, "rx_queue"),
      receiver_(cache_),
      processor_(sim, config, compile_policies(policies, msp)),
      fallback_validator_(msp, policies, /*parallelism=*/1) {}

void BmacPeer::enable_graceful_degradation(DegradeConfig config) {
  degrade_ = config;
  release_kick_ = std::make_unique<sim::Trigger>(sim_);
  commit_kick_ = std::make_unique<sim::Trigger>(sim_);
}

void BmacPeer::start() {
  processor_.start();
  sim_.spawn(protocol_processor_proc());
  if (degrade_) {
    sim_.spawn(stream_release_proc());
    sim_.spawn(reg_map_drain_proc());
  }
  sim_.spawn(commit_sequencer_proc());
}

void BmacPeer::attach_observability(obs::Registry* registry,
                                    obs::Tracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry_ != nullptr) {
    commit_latency_us_ = &registry_->histogram(
        "bmac_host_commit_latency_us", obs::Histogram::latency_us_buckets(),
        "reg_map result ready -> ledger append done");
  }
  if (tracer_ != nullptr) {
    // Lanes are created before the BlockProcessor's so the trace reads
    // top-to-bottom in pipeline order: protocol ingress, stages, host.
    protocol_lane_ = tracer_->lane("protocol_processor");
    obs::attach_fifo_trace(sim_, rx_queue_, tracer_, tracer_->lane("rx_queue"));
  }
  processor_.attach_observability(registry, tracer);
  if (tracer_ != nullptr) {
    host_lane_ = tracer_->lane("host_commit");
  }
}

void BmacPeer::publish_metrics() {
  if (registry_ != nullptr) {
    registry_
        ->counter("bmac_packets_processed_total",
                  "BMac packets consumed by the protocol_processor")
        .set(host_metrics_.packets_processed);
    // Published from the first drop on, so the metrics of a run that never
    // overflows hold no drop series; likewise the duplicate verdicts below.
    if (host_metrics_.rx_queue_dropped != 0) {
      registry_
          ->counter("bmac_rx_queue_dropped_total",
                    "packets dropped at a full rx queue")
          .set(host_metrics_.rx_queue_dropped);
    }
    if (host_metrics_.duplicate_verdicts != 0) {
      registry_
          ->counter("bmac_host_duplicate_verdicts_total",
                    "verdicts for blocks already committed, dropped")
          .set(host_metrics_.duplicate_verdicts);
    }
    registry_
        ->counter("bmac_host_blocks_committed_total",
                  "blocks appended to the host ledger")
        .set(host_metrics_.blocks_committed);
    registry_
        ->counter("bmac_host_blocks_rejected_total",
                  "blocks discarded: bad block signature, verdict mismatch "
                  "or out of sequence")
        .set(host_metrics_.blocks_rejected);
    registry_
        ->counter("bmac_host_verdict_mismatches_total",
                  "blocks rejected: verdicts do not cover the host block")
        .set(host_metrics_.verdict_mismatches);
    registry_
        ->counter("bmac_host_out_of_sequence_total",
                  "blocks rejected: number is not the ledger height")
        .set(host_metrics_.out_of_sequence_blocks);
    registry_
        ->counter("bmac_host_txs_committed_total",
                  "transactions written to the ledger (valid + invalid)")
        .set(host_metrics_.transactions_committed);
    registry_
        ->counter("bmac_host_txs_valid_total",
                  "committed transactions flagged valid")
        .set(host_metrics_.valid_transactions);
    if (degrade_) {
      registry_
          ->counter("bmac_fallback_blocks_total",
                    "blocks validated in software after a stalled stream")
          .set(degrade_metrics_.fallback_blocks);
      registry_
          ->counter("bmac_watchdog_fires_total",
                    "result-budget expiries with an incomplete stream")
          .set(degrade_metrics_.watchdog_fires);
      registry_
          ->counter("bmac_watchdog_deferrals_total",
                    "result-budget expiries with a healthy stream (re-armed)")
          .set(degrade_metrics_.watchdog_deferrals);
      registry_
          ->counter("bmac_streams_aborted_total",
                    "partial record assemblies discarded at fallback")
          .set(degrade_metrics_.streams_aborted);
      registry_
          ->counter("bmac_late_packets_total",
                    "packets for already-resolved blocks, dropped")
          .set(degrade_metrics_.late_packets);
      registry_
          ->counter("bmac_malformed_packets_total",
                    "packets the protocol_processor rejected")
          .set(degrade_metrics_.malformed_packets);
    }
    obs::publish_fifo_metrics(*registry_, rx_queue_, "bmac_fifo");
  }
  processor_.publish_metrics();
}

void BmacPeer::deliver_packet(BmacPacket packet) {
  if (!rx_queue_.try_put(std::move(packet))) ++host_metrics_.rx_queue_dropped;
}

void BmacPeer::deliver_block(fabric::Block block) {
  const std::uint64_t block_num = block.header.number;
  pending_blocks_.emplace(block_num, std::move(block));
  if (degrade_) {
    note_first_block(block_num);
    arm_watchdog(block_num);
    commit_kick_->fire(0);
  }
}

void BmacPeer::note_first_block(std::uint64_t block_num) {
  // Degraded mode assumes blocks are produced (and delivered on the host
  // path) in order, as Fabric's orderer guarantees; the first number seen
  // anywhere anchors the release/commit sequencers.
  if (base_known_) return;
  base_known_ = true;
  next_release_ = block_num;
  next_commit_ = block_num;
}

sim::Process BmacPeer::protocol_processor_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    ingest_busy_ = false;
    BmacPacket packet = co_await rx_queue_.get();
    ingest_busy_ = true;
    const sim::Time packet_start = sim_.now();
    const std::size_t wire_size = packet.wire_size();
    co_await sim_.delay(t.packet_processing_time(wire_size));
    if (degrade_ && packet.header.section != SectionType::kIdentitySync &&
        base_known_ && packet.header.block_num < next_release_) {
      // A straggler for a block already released or resolved (e.g. a
      // retransmission that raced the fallback): the hardware must not
      // re-stage records for it.
      ++degrade_metrics_.late_packets;
      ++host_metrics_.packets_processed;
      if (tracer_ != nullptr) {
        tracer_->complete(protocol_lane_, "packet_late", "protocol",
                          packet_start, sim_.now(),
                          {{"bytes", static_cast<std::uint64_t>(wire_size)},
                           {"block", packet.header.block_num}});
      }
      continue;
    }
    ProtocolReceiver::Emitted emitted = receiver_.on_packet(packet);
    // The span's args, read before the records move out.
    const auto ends = static_cast<std::uint64_t>(emitted.ends.size());
    const auto txs = static_cast<std::uint64_t>(emitted.txs.size());
    const bool has_block = emitted.block.has_value();
    if (!degrade_) {
      // DataWriter: push each record as soon as it is complete.
      // Back-pressure from full FIFOs stalls the protocol_processor, like
      // real hardware.
      for (auto& end : emitted.ends)
        co_await processor_.ends_fifo().put(std::move(end));
      for (auto& read : emitted.reads)
        co_await processor_.rdset_fifo().put(std::move(read));
      for (auto& write : emitted.writes)
        co_await processor_.wrset_fifo().put(std::move(write));
      for (auto& tx : emitted.txs)
        co_await processor_.tx_fifo().put(std::move(tx));
      if (emitted.block)
        co_await processor_.block_fifo().put(std::move(*emitted.block));
    } else if (emitted.error) {
      ++degrade_metrics_.malformed_packets;
    } else {
      stage_records(packet, std::move(emitted));
    }
    ++host_metrics_.packets_processed;
    if (tracer_ != nullptr) {
      tracer_->complete(protocol_lane_, "packet", "protocol", packet_start,
                        sim_.now(),
                        {{"bytes", static_cast<std::uint64_t>(wire_size)},
                         {"ends", ends},
                         {"txs", txs},
                         {"block", has_block}});
    }
  }
}

void BmacPeer::stage_records(const BmacPacket& packet,
                             ProtocolReceiver::Emitted&& emitted) {
  const std::uint64_t block_num = packet.header.block_num;
  if (packet.header.section == SectionType::kIdentitySync) return;
  note_first_block(block_num);
  StreamAssembly& stream = streams_[block_num];
  if (stream.state != StreamAssembly::State::kAssembling) {
    ++degrade_metrics_.late_packets;  // duplicate after completion
    return;
  }
  const auto section_key =
      std::make_pair(static_cast<int>(packet.header.section),
                     static_cast<std::uint32_t>(packet.header.section_index));
  if (!stream.sections_seen.insert(section_key).second) return;  // duplicate
  ++staged_sections_total_;
  staging_high_water_ = std::max(staging_high_water_, block_num);
  stream.total_sections = packet.header.total_sections;
  for (auto& end : emitted.ends) stream.ends.push_back(std::move(end));
  for (auto& read : emitted.reads) stream.reads.push_back(std::move(read));
  for (auto& write : emitted.writes) stream.writes.push_back(std::move(write));
  for (auto& tx : emitted.txs) stream.txs.push_back(std::move(tx));
  if (emitted.block) stream.block = std::move(emitted.block);
  if (stream.total_sections > 0 &&
      stream.sections_seen.size() == stream.total_sections && stream.block) {
    stream.state = StreamAssembly::State::kComplete;
    release_kick_->fire(0);
  }
}

sim::Process BmacPeer::stream_release_proc() {
  for (;;) {
    while (base_known_) {
      auto it = streams_.find(next_release_);
      if (it == streams_.end() ||
          it->second.state != StreamAssembly::State::kComplete)
        break;
      StreamAssembly& stream = it->second;
      stream.state = StreamAssembly::State::kReleased;
      // The stream completed after all; a watchdog that raced it is void.
      fallback_pending_.erase(next_release_);
      ++next_release_;
      // Hand the complete block to the hardware FIFOs in DataWriter order
      // (records within each FIFO are in arrival = section order; the
      // block entry goes last, exactly when the metadata section would
      // have produced it on the healthy path).
      for (auto& end : stream.ends)
        co_await processor_.ends_fifo().put(std::move(end));
      for (auto& read : stream.reads)
        co_await processor_.rdset_fifo().put(std::move(read));
      for (auto& write : stream.writes)
        co_await processor_.wrset_fifo().put(std::move(write));
      for (auto& tx : stream.txs)
        co_await processor_.tx_fifo().put(std::move(tx));
      co_await processor_.block_fifo().put(std::move(*stream.block));
    }
    co_await release_kick_->wait();
  }
}

sim::Process BmacPeer::reg_map_drain_proc() {
  const HwTimingModel& t = config_.timing;
  for (;;) {
    // GetBlockData(): returns when reg_map holds the validation result.
    ResultEntry result = co_await processor_.reg_map().get();
    co_await sim_.delay(t.host_result_read);
    const std::uint64_t block_num = result.block_num;
    hw_results_.emplace(block_num, std::move(result));
    commit_kick_->fire(0);
  }
}

std::size_t BmacPeer::stream_progress(std::uint64_t block_num) const {
  const auto it = streams_.find(block_num);
  return it == streams_.end() ? 0 : it->second.sections_seen.size();
}

void BmacPeer::arm_watchdog(std::uint64_t block_num) {
  if (watchdogs_.count(block_num) != 0) return;
  const std::size_t local = stream_progress(block_num);
  const std::uint64_t global = staged_sections_total_;
  watchdogs_[block_num] =
      sim_.schedule(degrade_->result_budget, [this, block_num, local, global] {
        watchdogs_.erase(block_num);
        on_watchdog(block_num, local, global);
      });
}

void BmacPeer::on_watchdog(std::uint64_t block_num, std::size_t armed_local,
                           std::uint64_t armed_global) {
  if (base_known_ && block_num < next_commit_) return;  // already committed
  if (hw_results_.count(block_num) != 0) return;  // result waiting in line
  const auto it = streams_.find(block_num);
  if (it != streams_.end() &&
      it->second.state != StreamAssembly::State::kAssembling) {
    // The record stream is intact — the hardware is merely behind (an
    // earlier block is being resolved, or validation is slow). The result
    // is guaranteed to arrive; give it another budget.
    ++degrade_metrics_.watchdog_deferrals;
    arm_watchdog(block_num);
    return;
  }
  if (stream_progress(block_num) > armed_local) {
    // New sections landed during this budget: the stream is slow (small
    // budget, retransmissions in flight), not stalled. Fall back only when
    // a full budget passes with zero assembly progress.
    ++degrade_metrics_.watchdog_deferrals;
    arm_watchdog(block_num);
    return;
  }
  if (staged_sections_total_ > armed_global &&
      staging_high_water_ < block_num) {
    // The GBN stream delivers in order, and every section staged during this
    // budget belonged to an earlier block: this block's packets are queued
    // behind a busy pipe, not lost. Once staging reaches or skips past this
    // block (high water >= block_num) this clause stops deferring, so a
    // resync that abandoned the block still falls back within one budget of
    // the pipe draining.
    ++degrade_metrics_.watchdog_deferrals;
    arm_watchdog(block_num);
    return;
  }
  if ((!rx_queue_.empty() || ingest_busy_) &&
      staging_high_water_ <= block_num) {
    // Nothing staged this budget, but the ingress pipe is still chewing
    // (packets can take longer than a small budget to process) and staging
    // has not yet skipped past this block — with in-order delivery the
    // queued packets may still belong to it. Fall back only once the pipe
    // idles or staging moves beyond the block.
    ++degrade_metrics_.watchdog_deferrals;
    arm_watchdog(block_num);
    return;
  }
  // Stream stalled (sections missing, frames abandoned by the GBN sender,
  // or nothing arrived at all): schedule the software fallback.
  ++degrade_metrics_.watchdog_fires;
  if (flight_ != nullptr) {
    flight_->record(obs::FlightStage::kWatchdog, block_num, "stream_stalled");
    flight_->trigger("bmac:watchdog block " + std::to_string(block_num));
  }
  fallback_pending_.insert(block_num);
  commit_kick_->fire(0);
}

sim::Process BmacPeer::commit_sequencer_proc() {
  const HwTimingModel& t = config_.timing;
  sim::Time read_at = 0;  // healthy mode: when GetBlockData() returned
  for (;;) {
    for (;;) {
      const std::uint64_t block_num = next_commit_;
      auto hw = hw_results_.find(block_num);
      if (hw != hw_results_.end()) {
        ResultEntry result = std::move(hw->second);
        hw_results_.erase(hw);
        // A healthy commit is timed from its GetBlockData() read, a
        // degraded one from pick-up.
        const sim::Time commit_start = degrade_ ? sim_.now() : read_at;
        // The same block arrives via Gossip/forwarded UDP; normally it is
        // already here since hardware validation takes far longer than
        // block delivery. Poll briefly otherwise.
        auto it = pending_blocks_.find(block_num);
        while (it == pending_blocks_.end()) {
          co_await sim_.delay(100 * sim::kMicrosecond);
          it = pending_blocks_.find(block_num);
        }
        fabric::Block block = std::move(it->second);
        pending_blocks_.erase(it);
        check_commitable(result, block);
        if (result.block_valid) {
          block.set_tx_flags(result.flags);
          co_await sim_.delay(t.ledger_commit_fixed +
                              t.ledger_commit_per_tx *
                                  static_cast<sim::Time>(result.flags.size()));
          // Mirror the valid writes into the shadow state DB, so the
          // fallback validator sees what the hardware store holds.
          if (degrade_) {
            fabric::for_each_valid_write(
                block, [this](std::string key, Bytes value,
                              fabric::Version version) {
                  shadow_state_.put(key, std::move(value), version);
                });
          }
          ledger_.append(std::move(block));
        }
        finish_commit(std::move(result), commit_start);
        resolve_block(block_num);
        continue;
      }
      if (fallback_pending_.count(block_num) != 0) {
        const auto stream = streams_.find(block_num);
        if (stream != streams_.end() &&
            stream->second.state != StreamAssembly::State::kAssembling) {
          // The stream healed between the watchdog and here — the hardware
          // result is on its way; do not double-validate.
          fallback_pending_.erase(block_num);
          break;
        }
        auto it = pending_blocks_.find(block_num);
        if (it == pending_blocks_.end()) break;  // watchdog needs the block
        fabric::Block block = std::move(it->second);
        pending_blocks_.erase(it);
        fallback_pending_.erase(block_num);
        const sim::Time commit_start = sim_.now();
        if (!extends_ledger(block)) {
          ResultEntry rejected;
          rejected.block_num = block_num;
          rejected.fallback = true;
          finish_commit(std::move(rejected), commit_start);
          resolve_block(block_num);
          continue;
        }
        co_await sim_.delay(
            degrade_->fallback_fixed +
            degrade_->fallback_per_tx *
                static_cast<sim::Time>(block.envelopes.size()));
        // Full software validation against the shadow state, committing to
        // the same ledger the hardware path uses — the commit-hash chain
        // continues exactly as if the hardware had produced the flags.
        fabric::BlockValidationResult verdict =
            fallback_validator_.validate_and_commit(block, shadow_state_,
                                                    ledger_);
        // Write-through: the in-hardware KV store must see this block's
        // writes before it validates any later block's reads. They go as
        // one burst (parity with the state DB's batched commit): a single
        // transaction over PCIe.
        if (verdict.block_valid) {
          std::vector<HwKvStore::BatchWrite> burst;
          fabric::for_each_valid_write(
              ledger_.last().block,
              [&burst](std::string key, Bytes value, fabric::Version version) {
                burst.push_back({std::move(key), std::move(value), version});
              });
          processor_.statedb().write_batch(std::move(burst));
        }
        ++degrade_metrics_.fallback_blocks;
        if (flight_ != nullptr) {
          flight_->record(obs::FlightStage::kFallback, block_num,
                          verdict.block_valid ? "committed" : "rejected");
          flight_->trigger("bmac:fallback block " + std::to_string(block_num));
        }
        ResultEntry result;
        result.block_num = block_num;
        result.block_valid = verdict.block_valid;
        result.flags = std::move(verdict.flags);
        result.fallback = true;
        finish_commit(std::move(result), commit_start);
        resolve_block(block_num);
        continue;
      }
      break;  // nothing resolvable at next_commit_ yet
    }
    if (degrade_) {
      co_await commit_kick_->wait();
      continue;
    }
    // GetBlockData(): returns when reg_map holds the next verdict. The
    // healthy host commits in reg_map order.
    ResultEntry result = co_await processor_.reg_map().get();
    read_at = sim_.now();
    co_await sim_.delay(t.host_result_read);
    // Its block is committed and gone from pending_blocks_: waiting for it
    // would poll forever.
    if (result.block_num < ledger_.height()) {
      ++host_metrics_.duplicate_verdicts;
      continue;
    }
    next_commit_ = result.block_num;
    hw_results_.emplace(next_commit_, std::move(result));
  }
}

void BmacPeer::check_commitable(ResultEntry& result,
                                const fabric::Block& block) {
  if (!result.block_valid || !extends_ledger(block)) {
    result.block_valid = false;
  } else if (result.flags.size() != block.envelopes.size()) {
    ++host_metrics_.verdict_mismatches;
    result.block_valid = false;
  }
}

bool BmacPeer::extends_ledger(const fabric::Block& block) {
  if (block.header.number == ledger_.height()) return true;
  ++host_metrics_.out_of_sequence_blocks;
  return false;
}

void BmacPeer::finish_commit(ResultEntry result, sim::Time commit_start) {
  const auto txs = static_cast<std::uint64_t>(result.flags.size());
  if (result.block_valid) {
    ++host_metrics_.blocks_committed;
    host_metrics_.transactions_committed += txs;
    host_metrics_.valid_transactions += static_cast<std::uint64_t>(
        std::count(result.flags.begin(), result.flags.end(),
                   fabric::TxValidationCode::kValid));
  } else {
    ++host_metrics_.blocks_rejected;
  }
  if (commit_latency_us_ != nullptr) {
    commit_latency_us_->observe(
        static_cast<double>(sim_.now() - commit_start) / 1000.0);
  }
  if (tracer_ != nullptr) {
    std::vector<obs::TraceArg> args{{"block", result.block_num},
                                    {"txs", txs},
                                    {"committed", result.block_valid}};
    // Only degraded-mode spans say which engine produced the flags.
    if (degrade_) args.emplace_back("fallback", result.fallback);
    tracer_->complete(host_lane_,
                      result.fallback ? "host_commit_fallback" : "host_commit",
                      "host-commit", commit_start, sim_.now(),
                      std::move(args));
  }
  results_.push_back(std::move(result));
}

void BmacPeer::resolve_block(std::uint64_t block_num) {
  auto it = streams_.find(block_num);
  if (it != streams_.end()) {
    if (it->second.state != StreamAssembly::State::kReleased) {
      ++degrade_metrics_.streams_aborted;
      receiver_.discard(block_num);
      if (flight_ != nullptr)
        flight_->record(obs::FlightStage::kAborted, block_num,
                        "partial_stream");
    }
    streams_.erase(it);
  }
  hw_results_.erase(block_num);
  fallback_pending_.erase(block_num);
  auto wd = watchdogs_.find(block_num);
  if (wd != watchdogs_.end()) {
    sim_.cancel(wd->second);
    watchdogs_.erase(wd);
  }
  next_commit_ = block_num + 1;
  if (degrade_ && next_release_ <= block_num) {
    next_release_ = block_num + 1;
    release_kick_->fire(0);
  }
}

}  // namespace bm::bmac
