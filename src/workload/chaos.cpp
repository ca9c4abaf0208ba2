#include "workload/chaos.hpp"

#include <sstream>

#include "obs/telemetry.hpp"

namespace bm::workload {

namespace {
/// Blocks go onto the wire this far apart, over 1 Gbps links.
constexpr sim::Time kBlockInterval = 20 * sim::kMillisecond;
/// Hard stop: a partitioned run that cannot finish ends here.
constexpr sim::Time kTimeLimit = 30 * sim::kSecond;
/// Give up on a window after 6 consecutive timeouts (2+4+8+16+32+64 ms of
/// backoff) instead of retrying forever, so a partition turns into a
/// fallback instead of a stall.
constexpr std::size_t kRetransmitCap = 6;
}  // namespace

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
  peer.enable_graceful_degradation();
  if (registry != nullptr || tracer != nullptr)
    peer.attach_observability(registry, tracer);

  // Fault-free links: every impairment belongs to the injectors, where it
  // is scriptable, counted and deterministic.
  net::Link data_link(sim, net::Link::Config{});
  net::Link ack_link(sim, net::Link::Config{});
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
  bmac::GbnSender::Config gbn_config;
  gbn_config.retransmit_cap = kRetransmitCap;
  gbn = std::make_unique<bmac::GbnSender>(
      sim, gbn_config,
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
    sim.schedule(static_cast<sim::Time>(i) * kBlockInterval, [&, i] {
      for (auto& packet : sender.send(produced[i]).packets)
        gbn->send(packet.encode());
      peer.deliver_block(produced[i]);
    });
  }

  // Run until every block is resolved (committed or rejected) or the time
  // limit trips. A plain sim.run() would not return: the GBN timer re-arms
  // forever while its last SYNC frame is blackholed by a partition.
  const sim::Time step = 10 * sim::kMillisecond;
  while (sim.now() < kTimeLimit &&
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

}  // namespace bm::workload
