#include "workload/chaos.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/rng.hpp"
#include "obs/telemetry.hpp"

namespace bm::workload {

std::string ChaosReport::to_text() const {
  std::ostringstream out;
  out << "complete " << complete << "\n"
      << "hashes_match " << hashes_match << "\n"
      << "flags_match " << flags_match << "\n"
      << "blocks_produced " << blocks_produced << "\n"
      << "blocks_committed " << blocks_committed << "\n"
      << "blocks_rejected " << blocks_rejected << "\n"
      << "fallback_blocks " << degrade.fallback_blocks << "\n"
      << "watchdog_fires " << degrade.watchdog_fires << "\n"
      << "watchdog_deferrals " << degrade.watchdog_deferrals << "\n"
      << "streams_aborted " << degrade.streams_aborted << "\n"
      << "late_packets " << degrade.late_packets << "\n"
      << "gbn_failures " << gbn_failures << "\n"
      << "gbn_frames_sent " << sender_stats.frames_sent << "\n"
      << "gbn_retransmissions " << sender_stats.retransmissions << "\n"
      << "gbn_timeouts " << sender_stats.timeouts << "\n"
      << "gbn_frames_abandoned " << sender_stats.frames_abandoned << "\n"
      << "gbn_stream_resyncs " << sender_stats.stream_resyncs << "\n"
      << "gbn_frames_corrupted " << receiver_stats.frames_corrupted << "\n"
      << "gbn_frames_discarded " << receiver_stats.frames_discarded << "\n"
      << "data_dropped_loss " << data_faults.dropped_loss << "\n"
      << "data_dropped_partition " << data_faults.dropped_partition << "\n"
      << "data_dropped_corrupt " << data_faults.dropped_corrupt << "\n"
      << "data_corrupted_silent " << data_faults.corrupted_silent << "\n"
      << "data_duplicated " << data_faults.duplicated << "\n"
      << "data_reordered " << data_faults.reordered << "\n"
      << "ack_dropped_total " << ack_faults.dropped_total() << "\n"
      << "finished_at_us " << finished_at / sim::kMicrosecond << "\n";
  if (!mismatch.empty()) out << "mismatch " << mismatch << "\n";
  return out.str();
}

ChaosReport run_chaos_scenario(const ChaosOptions& options,
                               obs::Registry* registry, obs::Tracer* tracer,
                               obs::Telemetry* telemetry) {
  ChaosReport report;
  FabricNetworkHarness harness(options.network);

  sim::Simulation sim;
  bmac::BmacPeer peer(sim, harness.msp(), options.hw, harness.policies());
  peer.enable_graceful_degradation(options.degrade);
  if (registry != nullptr || tracer != nullptr)
    peer.attach_observability(registry, tracer);

  // Fault-free links: every impairment belongs to the injectors, where it
  // is scriptable, counted and deterministic.
  net::Link::Config link_config;
  link_config.gbps = options.link_gbps;
  net::Link data_link(sim, link_config);
  net::Link ack_link(sim, link_config);
  net::FaultyChannel data(sim, data_link, options.scenario.data);
  net::FaultyChannel ack(sim, ack_link, options.scenario.ack);

  std::unique_ptr<bmac::GbnSender> gbn;
  bmac::GbnReceiver receiver(
      [&](Bytes payload) {
        // The frame passed the GBN CRC, so the packet decodes unless the
        // sender emitted garbage (it does not).
        auto packet = bmac::BmacPacket::decode(payload);
        if (packet) peer.deliver_packet(std::move(*packet));
      },
      [&](std::uint64_t next) { ack.send(bmac::encode_ack(next)); });
  data.set_receiver([&](Bytes wire) { receiver.on_wire(wire); });
  ack.set_receiver([&](Bytes wire) {
    if (const auto next = bmac::decode_ack(wire)) gbn->on_ack(*next);
  });
  gbn = std::make_unique<bmac::GbnSender>(
      sim, options.gbn,
      [&](const bmac::SequencedFrame& frame) { data.send(frame.encode()); });
  gbn->set_failure_callback(
      [&](std::uint64_t, std::uint64_t) { ++report.gbn_failures; });

  // Every chaos counter and gauge, read from the components' own stats:
  // the telemetry refresh before each sample and the end-of-run snapshot.
  const auto publish = [&] {
    peer.publish_metrics();
    data.publish_metrics(*registry, "chaos_data");
    ack.publish_metrics(*registry, "chaos_ack");
    registry->counter("chaos_gbn_retransmissions_total",
                      "GBN frames retransmitted")
        .set(gbn->stats().retransmissions);
    registry->counter("chaos_gbn_frames_abandoned_total",
                      "GBN frames given up at the retransmission cap")
        .set(gbn->stats().frames_abandoned);
    registry->counter("chaos_gbn_stream_resyncs_total",
                      "SYNC frames emitted after cap exhaustion")
        .set(gbn->stats().stream_resyncs);
    registry->counter("chaos_gbn_frames_corrupted_total",
                      "frames dropped by the GBN CRC check")
        .set(receiver.stats().frames_corrupted);
  };
  if (telemetry != nullptr && telemetry->enabled() && registry != nullptr) {
    telemetry->attach(sim, *registry, tracer, publish);
    peer.set_flight_recorder(telemetry->flight());
  }
  peer.start();
  bmac::ProtocolSender sender(harness.msp());
  if (tracer != nullptr) {
    data.set_tracer(tracer, tracer->lane("faults_data"));
    ack.set_tracer(tracer, tracer->lane("faults_ack"));
  }

  // Cut all blocks up front (the harness is sim-time independent), then
  // pace them onto the wire. The host path (deliver_block) is the reliable
  // Gossip/TCP side and is delivered directly.
  std::vector<fabric::Block> produced;
  produced.reserve(static_cast<std::size_t>(options.blocks));
  for (int i = 0; i < options.blocks; ++i) {
    const bool tamper = options.tamper_last_block && i == options.blocks - 1;
    produced.push_back(tamper ? harness.next_tampered_block()
                              : harness.next_block());
  }
  report.blocks_produced = produced.size();
  for (std::size_t i = 0; i < produced.size(); ++i) {
    sim.schedule(static_cast<sim::Time>(i) * options.block_interval, [&, i] {
      for (auto& packet : sender.send(produced[i]).packets)
        gbn->send(packet.encode());
      peer.deliver_block(produced[i]);
    });
  }

  // Run until every block is resolved (committed or rejected) or the time
  // limit trips. A plain sim.run() would not return: the GBN timer re-arms
  // forever while its last SYNC frame is blackholed by a partition.
  const sim::Time step = 10 * sim::kMillisecond;
  while (sim.now() < options.time_limit &&
         peer.results().size() < produced.size())
    sim.run_until(sim.now() + step);
  report.complete = peer.results().size() == produced.size();
  report.finished_at = sim.now();

  // --- the equivalence check vs the fault-free reference run --------------
  // The harness reference ledger commits the *clean* version of a tampered
  // block (next_tampered_block corrupts the copy it hands out), so a correct
  // peer's ledger is exactly `reference height - rejected blocks` tall and
  // hash-identical over that prefix.
  const fabric::Ledger& reference = harness.reference_ledger();
  const std::uint64_t rejected = peer.host_metrics().blocks_rejected;
  const bool heights_match =
      peer.ledger().height() + rejected == reference.height();
  const std::string diverged =
      fabric::chain_divergence(peer.ledger(), reference);
  report.hashes_match = heights_match && diverged.empty();
  if (!heights_match)
    report.mismatch = "ledger height " + std::to_string(peer.ledger().height()) +
                      " + rejected " + std::to_string(rejected) +
                      " != reference " + std::to_string(reference.height());
  else if (!diverged.empty())
    report.mismatch = "commit hash diverged at " + diverged;
  report.flags_match = report.complete;
  for (const bmac::ResultEntry& result : peer.results()) {
    const fabric::BlockValidationResult& want =
        harness.reference_result(result.block_num);
    if (result.block_valid != want.block_valid ||
        result.flags != want.flags) {
      report.flags_match = false;
      if (report.mismatch.empty())
        report.mismatch =
            "flags diverged at block " + std::to_string(result.block_num);
      break;
    }
  }

  report.blocks_committed = peer.ledger().height();
  report.blocks_rejected = peer.host_metrics().blocks_rejected;
  report.sender_stats = gbn->stats();
  report.receiver_stats = receiver.stats();
  report.data_faults = data.stats();
  report.ack_faults = ack.stats();
  report.degrade = peer.degrade_metrics();
  report.host = peer.host_metrics();

  if (registry != nullptr) publish();
  // The sampler/monitor hold recurring events on `sim`, which dies with this
  // frame — settle them (final sample + evaluation) before returning.
  if (telemetry != nullptr) telemetry->finish();
  return report;
}

// --- kill-and-restart: the durable-ledger crash drill ----------------------

std::string CrashRecoveryReport::to_text() const {
  // recovery.duration_s is wall clock — deliberately absent, the text must
  // be byte-identical across reruns.
  std::ostringstream out;
  out << "crashed_mid_record " << crashed_mid_record << "\n"
      << "recovered " << recovered << "\n"
      << "hashes_match " << hashes_match << "\n"
      << "resumed " << resumed << "\n"
      << "final_chain_matches " << final_chain_matches << "\n"
      << "crash_offset " << crash_offset << "\n"
      << "torn_bytes " << recovery.torn_bytes << "\n"
      << "used_snapshot " << recovery.used_snapshot << "\n"
      << "snapshot_height " << recovery.snapshot_height << "\n"
      << "blocks_replayed " << recovery.blocks_replayed << "\n"
      << "recovered_height " << recovered_height << "\n"
      << "final_height " << final_height << "\n";
  if (!mismatch.empty()) out << "mismatch " << mismatch << "\n";
  return out.str();
}

CrashRecoveryReport run_crash_recovery(const CrashRecoveryOptions& options,
                                       obs::Registry* registry) {
  CrashRecoveryReport report;
  NetworkOptions net = options.network;
  net.durability = options.durability;
  const std::string& path = options.durability.ledger_path;
  // Need a committed block *before* the torn one so the survivor prefix is
  // non-empty and the reopened store has a real chain head to defend.
  const int before = std::max(2, options.blocks_before_crash);
  const int total = before + std::max(0, options.blocks_after);

  // Start from a clean slate: a stale log or snapshot left behind by an
  // earlier run would poison the equivalence check.
  fabric::DurableLedger::remove_files(options.durability);

  // --- 1. commit durably, then "kill -9" ---------------------------------
  {
    FabricNetworkHarness harness(net);
    for (int i = 0; i < before; ++i) harness.next_block();
    harness.durable()->sync();
  }  // dropped on the floor: no orderly shutdown, the file just closes

  // --- 2. tear the tail: truncate mid-record at a random byte ------------
  {
    const auto chain = fabric::FileBlockStore::recover(path);
    if (chain.blocks.size() != static_cast<std::size_t>(before)) {
      report.mismatch = "pre-crash log holds " +
                        std::to_string(chain.blocks.size()) + " blocks, want " +
                        std::to_string(before);
      return report;
    }
    const std::uint64_t last_start =
        chain.record_offsets[chain.blocks.size() - 1];
    const std::uint64_t end = chain.record_offsets.back();
    Rng rng(options.crash_seed);
    const std::uint64_t cut = last_start + 1 + rng.uniform(end - last_start - 1);
    std::filesystem::resize_file(path, cut);
    report.crash_offset = cut;
    report.crashed_mid_record = cut > last_start && cut < end;
  }

  // --- 3. recover from disk ----------------------------------------------
  fabric::Ledger recovered_ledger;
  fabric::StateDb recovered_state;
  report.recovery = fabric::DurableLedger::recover(options.durability,
                                                   recovered_ledger,
                                                   recovered_state);
  report.recovered = report.recovery.ok &&
                     recovered_ledger.height() ==
                         static_cast<std::uint64_t>(before) - 1;
  report.recovered_height = recovered_ledger.height();
  if (!report.recovered && report.mismatch.empty())
    report.mismatch = report.recovery.ok
                          ? "recovered height " +
                                std::to_string(recovered_ledger.height()) +
                                ", want " + std::to_string(before - 1)
                          : "recovery failed: " + report.recovery.error;

  // --- 4. restart over the same log, commit at full speed ----------------
  // Same seed => the harness regenerates the identical block stream; the
  // reopened store must seed its head from the surviving prefix, skip the
  // already-durable replay, re-append the torn-away block and then extend.
  std::uint64_t store_height = 0;
  fabric::Ledger reference;
  {
    FabricNetworkHarness harness(net);
    for (int i = 0; i < total; ++i) harness.next_block();
    harness.durable()->sync();
    store_height = harness.durable()->store().height();
    if (registry != nullptr)
      harness.durable()->publish_metrics(*registry, "chaos_durable");
    reference = harness.reference_ledger();
  }
  report.resumed = store_height == static_cast<std::uint64_t>(total);
  if (!report.resumed && report.mismatch.empty())
    report.mismatch = "store height " + std::to_string(store_height) +
                      " after restart, want " + std::to_string(total);

  // --- the §4.1 oracle: byte-for-byte commit-hash equality ----------------
  const std::string diverged =
      fabric::chain_divergence(recovered_ledger, reference);
  report.hashes_match = report.recovered && diverged.empty();
  if (report.recovered && !report.hashes_match && report.mismatch.empty())
    report.mismatch = "recovered commit hash diverged at " + diverged;

  // --- 5. recover once more: the whole chain must reproduce --------------
  fabric::Ledger final_ledger;
  fabric::StateDb final_state;
  const fabric::RecoveryResult final_recovery =
      fabric::DurableLedger::recover(options.durability, final_ledger,
                                     final_state);
  report.final_height = final_ledger.height();
  const std::string final_diverged =
      fabric::chain_divergence(final_ledger, reference);
  report.final_chain_matches = final_recovery.ok &&
                               final_ledger.height() == reference.height() &&
                               final_diverged.empty();
  if (!report.final_chain_matches && report.mismatch.empty()) {
    if (!final_recovery.ok)
      report.mismatch = "final recovery failed: " + final_recovery.error;
    else if (!final_diverged.empty())
      report.mismatch = "final chain diverged at " + final_diverged;
    else
      report.mismatch = "final height " +
                        std::to_string(final_ledger.height()) + ", want " +
                        std::to_string(reference.height());
  }

  if (registry != nullptr)
    fabric::DurableLedger::publish_recovery_metrics(*registry,
                                                    "chaos_recovery",
                                                    report.recovery);
  return report;
}

}  // namespace bm::workload
