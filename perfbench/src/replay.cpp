// Workload `replay`: the storage stack, with no ECDSA in the timed part.
//
// Set-up: a long seeded smallbank chain of short blocks (3 txs each), signed
// and reference-validated by the harness. Its committed blocks (flags
// filled in) and tail commit hash are the inputs and the oracle.
//
// One timed rep, in its own temp directory:
//   write side: for every committed block, Ledger::append, the block's valid
//     writes through StateDb::commit_batch, then DurableLedger::on_commit
//     (block-log append, with a StateDb snapshot cut every 50 blocks);
//   read side: a full replay (FileBlockStore::recover + replay_chain), then
//     three DurableLedger::recover calls (newest snapshot + log tail).
// Every replay and recovery must reproduce the reference tail commit hash.
#include "fabric/block_store.hpp"
#include "fabric/durability.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bm;

constexpr int kRecoversPerRep = 3;

}  // namespace

Result run_replay(const RunConfig& config, SpanLog& spans) {
  Result result;
  const bool smoke = config.scale == Scale::kSmoke;
  workload::NetworkOptions options;
  options.orgs = 2;
  options.policy_text = "2-outof-2 orgs";
  options.block_size = 3;
  options.seed = config.seed;
  const int block_count = smoke ? 25 : 330;
  const std::uint64_t snapshot_interval = smoke ? 10 : 50;

  const Chain chain = build_chain(options, block_count, result);
  const fabric::Ledger& reference = chain.harness->reference_ledger();
  const crypto::Digest& tail = reference.last_commit_hash();

  Samples append_tps, replay_tps, recover_ms, rep_tps;
  std::string first_pins;
  const double overhead = run_reps(config, spans, 1, [&](int rep) {
    const TempDir dir(config.out_dir / "tmp");
    fabric::DurabilityConfig durability;
    durability.ledger_path = (dir.path() / "chain.log").string();
    durability.snapshot_interval = snapshot_interval;
    const auto rep_span = spans.span("replay.rep", rep);

    // Write side.
    fabric::Ledger ledger;
    fabric::StateDb state;
    bool hashes_match = true;
    std::uint64_t log_bytes = 0, snapshots = 0;
    ScaledTimer write_timer;
    {
      const auto span = spans.span("replay.write", rep);
      fabric::DurableLedger durable(durability);
      for (std::uint64_t n = 0; n < reference.height(); ++n) {
        const fabric::CommittedBlock& committed = reference.at(n);
        hashes_match =
            ledger.append(committed.block) == committed.commit_hash &&
            hashes_match;
        state.commit_batch(valid_writes(committed.block, state));
        durable.on_commit(ledger, state);
      }
      log_bytes = durable.store().bytes_written();
      snapshots = durable.snapshots_cut();
    }
    const double write_s = write_timer.stop();

    // Read side: full replay from the log.
    fabric::Ledger replayed;
    fabric::StateDb replayed_state;
    bool replay_ok = false;
    ScaledTimer replay_timer;
    {
      const auto span = spans.span("replay.full_replay", rep);
      const auto scanned = fabric::FileBlockStore::recover(durability.ledger_path);
      replay_ok = fabric::replay_chain(scanned, replayed, &replayed_state);
    }
    const double replay_s = replay_timer.stop();

    // Read side: snapshot + tail recovery.
    double recover_s = 0;
    std::vector<fabric::RecoveryResult> recoveries;
    std::vector<std::size_t> recovered_keys;
    std::vector<crypto::Digest> recovered_tails;
    for (int r = 0; r < kRecoversPerRep; ++r) {
      const auto span = spans.span("replay.recover", rep);
      fabric::Ledger recovered;
      fabric::StateDb recovered_state;
      ScaledTimer timer;
      recoveries.push_back(
          fabric::DurableLedger::recover(durability, recovered, recovered_state));
      const double seconds = timer.stop();
      recover_s += seconds;
      recover_ms.add(seconds * 1e3);
      recovered_keys.push_back(recovered_state.size());
      recovered_tails.push_back(recovered.last_commit_hash());
    }

    // Oracle.
    result.check(hashes_match && ledger.last_commit_hash() == tail,
                 "write side recomputed a different commit-hash chain");
    result.check(replay_ok && replayed.height() == reference.height() &&
                     replayed.last_commit_hash() == tail &&
                     replayed_state.size() == state.size(),
                 "full replay did not reproduce the reference tail");
    for (std::size_t r = 0; r < recoveries.size(); ++r)
      result.check(recoveries[r].ok && recoveries[r].used_snapshot &&
                       recoveries[r].height == reference.height() &&
                       recovered_tails[r] == tail &&
                       recovered_keys[r] == state.size(),
                   "snapshot recovery did not reproduce the reference tail");
    const fabric::RecoveryResult& recovery = recoveries.front();
    const std::string pins =
        "height " + std::to_string(ledger.height()) + " tail " + hex(tail) +
        " keys " + std::to_string(state.size()) + " log_bytes " +
        std::to_string(log_bytes) + " snapshots " + std::to_string(snapshots) +
        " recovered_from " + std::to_string(recovery.snapshot_height) +
        " replayed " + std::to_string(recovery.blocks_replayed) + "\n";
    if (rep == 0) first_pins = pins;
    result.check(pins == first_pins,
                 "rep " + std::to_string(rep) + " differs from rep 0");

    const auto txs = static_cast<double>(chain.txs);
    append_tps.add(txs / write_s);
    replay_tps.add(txs / replay_s);
    rep_tps.add(txs / (write_s + replay_s + recover_s));
    return write_s + replay_s + recover_s;
  });

  result.tx_per_s = rep_tps.median();
  const std::string reps = std::to_string(rep_tps.size()) + " reps of " +
                           std::to_string(reference.height()) + " blocks / " +
                           std::to_string(chain.txs) + " txs";
  result.figure("append_tps", append_tps.median(), "1/s",
                "write side, median of " + reps);
  result.figure("replay_tps", replay_tps.median(), "1/s",
                "full replay, median of " + reps);
  result.figure("recover_ms", recover_ms.median(), "ms",
                "median of " + std::to_string(recover_ms.size()) +
                    " DurableLedger::recover calls");
  result.pins = first_pins;

  if (config.trace) {
    result.layers["obs.trace_overhead_share"] = overhead;
    probe_layers({&chain.harness->msp(), &chain.harness->policies(),
                  &chain.blocks, options},
                 config, result);
    probe_cluster(config, result);
  }
  return result;
}

}  // namespace perfbench
