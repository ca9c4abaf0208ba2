// Workload `commit`: the paper's validation pipeline, closed loop, one block
// in flight.
//
// Set-up: a seeded smallbank chain (2 orgs, "2-outof-2 orgs", 50-tx blocks)
// with the `bmac_sim validate --faults` mix: 10% bad creator signatures, 10%
// missing endorsements, 15% stale reads. The harness signs and
// reference-validates it here, outside every timed window.
//
// One timed rep is a pass over the whole chain through two peers that start
// empty: the default software backend (validate_and_commit per block), then
// the BMac peer model (ProtocolSender::send, deliver_packet/deliver_block,
// Simulation::run per block). After the pass, every block's flags and
// commit hash from both peers are checked against the harness reference.
#include <memory>

#include "bmac/peer.hpp"
#include "bmac/protocol.hpp"
#include "fabric/validator_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bm;

workload::NetworkOptions chain_options(const RunConfig& config) {
  workload::NetworkOptions options;
  options.orgs = 2;
  options.policy_text = "2-outof-2 orgs";
  options.block_size = config.scale == Scale::kSmoke ? 10 : 50;
  options.seed = config.seed;
  options.bad_signature_rate = 0.1;
  options.missing_endorsement_rate = 0.1;
  options.conflicting_read_rate = 0.15;
  return options;
}

}  // namespace

Result run_commit(const RunConfig& config, SpanLog& spans) {
  Result result;
  const workload::NetworkOptions options = chain_options(config);
  const bool smoke = config.scale == Scale::kSmoke;
  const int block_count = smoke ? 3 : 25;
  // Enough passes that at least ten block timings lie beyond p90.
  const int min_passes = smoke ? 1 : (100 + block_count - 1) / block_count;

  const Chain chain = build_chain(options, block_count, result);
  const fabric::Msp& msp = chain.harness->msp();
  const auto& policies = chain.harness->policies();

  Samples block_ms, sw_tps, bmac_tps, pass_tps;
  std::string first_pins;
  const double overhead = run_reps(config, spans, min_passes, [&](int rep) {
    const auto pass_span = spans.span("commit.pass", rep);

    // Software peer: the shipped default backend.
    fabric::StateDb db;
    fabric::Ledger ledger;
    const auto backend = fabric::make_software_backend(msp, policies);
    std::vector<fabric::BlockValidationResult> sw(chain.blocks.size());
    double sw_s = 0;
    for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
      const auto span = spans.span("fabric.validate_and_commit",
                                   static_cast<std::int64_t>(i));
      ScaledTimer timer;
      sw[i] = backend->validate_and_commit(chain.blocks[i], db, ledger);
      const double seconds = timer.stop();
      block_ms.add(seconds * 1e3);
      sw_s += seconds;
    }

    // BMac peer: sender, packet and host delivery, then the DES drains.
    sim::Simulation sim;
    bmac::BmacPeer peer(sim, msp, bmac::HwConfig{}, policies);
    peer.start();
    bmac::ProtocolSender sender(msp);
    double bmac_s = 0;
    for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
      const auto span =
          spans.span("bmac.peer_block", static_cast<std::int64_t>(i));
      ScaledTimer timer;
      bmac::SendResult sent = sender.send(chain.blocks[i]);
      for (bmac::BmacPacket& packet : sent.packets)
        peer.deliver_packet(std::move(packet));
      peer.deliver_block(chain.blocks[i]);
      sim.run();
      bmac_s += timer.stop();
    }

    // Oracle, outside the timed windows.
    const auto& reference = *chain.harness;
    std::string pins;
    for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
      const auto& expected = reference.reference_result(i);
      result.check(sw[i].flags == expected.flags &&
                       sw[i].commit_hash == expected.commit_hash,
                   "software backend diverges at block " + std::to_string(i));
      const bool bmac_ok = i < peer.results().size() &&
                           i < peer.ledger().height() &&
                           peer.results()[i].flags == expected.flags &&
                           peer.ledger().at(i).commit_hash ==
                               expected.commit_hash;
      result.check(bmac_ok, "BMac peer diverges at block " + std::to_string(i));
      pins += pin_of(sw[i]);
    }
    const auto& monitor = peer.processor().monitor();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "bmac sim_ns %lld simulated_tps %.6f ecdsa %llu/%llu\n",
                  static_cast<long long>(sim.now()),
                  static_cast<double>(chain.txs) * 1e9 /
                      static_cast<double>(sim.now()),
                  static_cast<unsigned long long>(monitor.ecdsa_executed),
                  static_cast<unsigned long long>(monitor.ecdsa_skipped));
    pins += line;
    if (rep == 0) first_pins = pins;
    result.check(pins == first_pins,
                 "pass " + std::to_string(rep) + " differs from pass 0");

    const auto txs = static_cast<double>(chain.txs);
    sw_tps.add(txs / sw_s);
    bmac_tps.add(txs / bmac_s);
    pass_tps.add(txs / (sw_s + bmac_s));
    return sw_s + bmac_s;
  });

  result.tx_per_s = pass_tps.median();
  const std::string passes = std::to_string(pass_tps.size()) + " passes of " +
                             std::to_string(chain.txs) + " txs";
  result.figure("commit_tps", sw_tps.median(), "1/s",
                "software backend, median of " + passes);
  result.figure("block_ms_p50", block_ms.median(), "ms",
                std::to_string(block_ms.size()) + " validate_and_commit calls");
  result.figure("block_ms_p90", block_ms.quantile(0.9), "ms",
                std::to_string(block_ms.size()) + " validate_and_commit calls");
  result.figure("bmac_tps", bmac_tps.median(), "1/s",
                "BMac peer model, median of " + passes);
  result.pins = first_pins;

  if (config.trace) {
    result.layers["obs.trace_overhead_share"] = overhead;
    probe_layers({&msp, &policies, &chain.blocks, options}, config, result);
    probe_cluster(config, result);
  }
  return result;
}

}  // namespace perfbench
