// Workload `serve`: the open-loop serving front end.
//
// Set-up parses scenarios/scenario_steady.json (a copy of the repository's
// configs/scenario_steady.json with the run's seed): open-loop Poisson at
// 1500 tps for 2 s of simulated time, a 5000-client Zipf session population,
// a 64-cert handshake pool and partial blocks cut at the 25 ms batch
// timeout.
//
// One timed rep is one serve::run_serve call with the library's equivalence
// check on. That check replays the committed chain through an independent
// software backend inside the call, so its cost is part of the timing: the
// public API offers no way to run it separately. Per-request signing and the
// harness's reference commit also run inside the call, as part of serving.
#include <stdexcept>

#include "serve/pipeline.hpp"
#include "serve/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bm;

Result run_serve(const RunConfig& config, SpanLog& spans) {
  Result result;
  serve::ServeOptions options;
  timed_setup(
      result, kParseReps, [&] {
        std::string error;
        auto scenario = serve::parse_scenario(
            scenario_text(config, "scenario_steady.json"), &error);
        if (!scenario) throw std::runtime_error("scenario_steady.json: " + error);
        return std::move(scenario->serve);
      },
      [&](serve::ServeOptions parsed, int rep) {
        if (rep == 0) options = std::move(parsed);
      });
  if (config.scale == Scale::kSmoke) options.duration = 200 * sim::kMillisecond;
  options.check_equivalence = true;

  Samples sim_speed, tps;
  std::string first_pins;
  std::vector<fabric::Block> blocks;
  std::uint64_t committed = 0;
  Samples call_s;
  const double overhead = run_reps(config, spans, 1, [&](int rep) {
    serve::ServeReport report;
    ScaledTimer timer;
    {
      const auto span = spans.span("serve.run_serve", rep);
      report = serve::run_serve(options);
    }
    const double seconds = timer.stop();

    result.check(report.drained, "serve did not drain");
    result.check(report.flags_match,
                 "serve equivalence check failed: " + report.mismatch);
    result.check(report.committed_txs > 0, "serve committed nothing");
    const std::string pins = report.to_text() + "finished_at " +
                             std::to_string(report.finished_at) + "\n";
    if (rep == 0) first_pins = pins;
    result.check(pins == first_pins,
                 "rep " + std::to_string(rep) + " differs from rep 0");

    const double simulated_s =
        static_cast<double>(report.finished_at) / sim::kSecond;
    sim_speed.add(simulated_s / seconds);
    tps.add(static_cast<double>(report.committed_txs) / seconds);
    call_s.add(seconds);
    committed = report.committed_txs;
    blocks = std::move(report.blocks);
    return seconds;
  });

  result.tx_per_s = tps.median();
  result.figure("serve_sim_speed", sim_speed.median(), "s/s",
                "simulated s per wall s, median of " +
                    std::to_string(sim_speed.size()) +
                    " run_serve calls (equivalence replay included)");
  result.pins = first_pins;

  if (config.trace) {
    result.layers["obs.trace_overhead_share"] = overhead;
    // The serving harness is internal to run_serve; one built from the same
    // network options has the same deterministic identities.
    workload::NetworkOptions network = options.network;
    network.block_size = options.ingress.max_batch;
    const workload::FabricNetworkHarness identities(network);
    probe_layers({&identities.msp(), &identities.policies(), &blocks, network},
                 config, result);
    // Counted ECDSA: one client and one per-org endorsement signature per
    // committed tx; every committed block is validated twice (the
    // harness's reference commit and the equivalence replay).
    const auto txs = static_cast<double>(committed);
    result.layers["serve.crypto_share"] = crypto_share(
        result, 2 * txs * result.layers.at("crypto.verifies_per_tx"),
        txs * (1 + network.orgs), call_s.median());
    probe_cluster(config, result);
  }
  return result;
}

}  // namespace perfbench
