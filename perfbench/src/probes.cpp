// Per-layer probes: each layer's public functions timed on the workload's
// own chain (the traced run only). Counts come from the layers' own stats.
#include <algorithm>
#include <span>

#include "bmac/peer.hpp"
#include "bmac/protocol.hpp"
#include "crypto/der.hpp"
#include "fabric/block_store.hpp"
#include "fabric/transaction.hpp"
#include "fabric/validator_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bm;

/// The probes use the chain's leading blocks up to this many transactions,
/// so a probe costs about the same on every workload.
constexpr std::uint64_t kProbeTxs = 1200;
/// Repetitions of the probes that time one whole-chain operation.
constexpr int kWholeChainReps = 5;
/// Cap on the key/digest/signature triples timed by the ECDSA probes.
constexpr std::size_t kMaxTriples = 200;

struct Triple {
  crypto::PublicKey key;
  crypto::Digest digest;
  crypto::Signature sig;
};

/// Every (key, digest, signature) the validator checks in these envelopes.
std::vector<Triple> triples_of(std::span<const fabric::Block> blocks) {
  std::vector<Triple> triples;
  for (const fabric::Block& block : blocks)
    for (const Bytes& envelope : block.envelopes) {
      const auto tx = fabric::parse_envelope(envelope);
      if (!tx) continue;
      if (const auto sig = crypto::der_decode_signature(tx->signature))
        triples.push_back({tx->creator.public_key,
                           crypto::sha256(tx->payload_bytes), *sig});
      const fabric::EndorsementDigester digester(tx->chaincode_id,
                                                 tx->rwset_bytes);
      for (const auto& endorsement : tx->endorsements)
        if (const auto sig = crypto::der_decode_signature(endorsement.signature))
          triples.push_back({endorsement.cert.public_key,
                             digester.digest(endorsement.cert_bytes), *sig});
      if (triples.size() >= kMaxTriples) return triples;
    }
  return triples;
}

template <class Fn>
double time_us(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start) * 1e6;
}

void probe_crypto(std::span<const fabric::Block> blocks,
                  workload::FabricNetworkHarness& harness, Result& result) {
  const std::vector<Triple> triples = triples_of(blocks);
  ScaledTimer timer;
  Samples verify_us, sign_us;
  for (const Triple& t : triples) {
    bool ok = false;
    verify_us.add(time_us([&] { ok = crypto::verify(t.key, t.digest, t.sig); }));
    (void)ok;
  }
  const fabric::Identity& signer = harness.orderer_identity();
  for (std::size_t i = 0; i < std::min<std::size_t>(triples.size(), 100); ++i) {
    crypto::Signature sig;
    sign_us.add(time_us([&] { sig = signer.sign(triples[i].digest); }));
    result.check(crypto::verify(signer.cert.public_key, triples[i].digest, sig),
                 "probe signature does not verify");
  }
  // SHA-256 throughput over the chain's envelope bytes (at least 1 MiB).
  Bytes bytes;
  while (bytes.size() < (1u << 20))
    for (const fabric::Block& block : blocks)
      for (const Bytes& envelope : block.envelopes) append(bytes, envelope);
  Samples hash_s;
  crypto::Digest sink{};
  for (int i = 0; i < kWholeChainReps; ++i)
    hash_s.add(time_us([&] { sink = crypto::sha256(bytes); }) / 1e6);
  (void)sink;
  timer.stop();
  result.layers["crypto.verify_us"] = timer.scaled(verify_us.median());
  result.layers["crypto.sign_us"] = timer.scaled(sign_us.median());
  result.layers["crypto.sha256_mb_s"] =
      static_cast<double>(bytes.size()) / 1e6 / timer.scaled(hash_s.median());
}

void probe_workload(workload::FabricNetworkHarness& harness,
                    const RunConfig& config, Result& result) {
  const int drafts = config.scale == Scale::kSmoke ? 3 : 20;
  ScaledTimer timer;
  Samples sign_us, block_ms;
  for (int i = 0; i < drafts; ++i) {
    const workload::TxDraft draft = harness.prepare_tx();
    Bytes envelope;
    sign_us.add(time_us([&] { envelope = harness.sign_envelope(draft); }));
  }
  const int blocks = config.scale == Scale::kSmoke ? 1 : 3;
  for (int i = 0; i < blocks; ++i)
    block_ms.add(time_us([&] { harness.next_block(); }) / 1e3);
  timer.stop();
  result.layers["workload.sign_envelope_us"] = timer.scaled(sign_us.median());
  result.layers["workload.next_block_ms"] = timer.scaled(block_ms.median());
}

void probe_parse(std::span<const fabric::Block> blocks, Result& result) {
  ScaledTimer timer;
  Samples parse_us, unmarshal_us;
  for (const fabric::Block& block : blocks) {
    for (const Bytes& envelope : block.envelopes) {
      if (parse_us.size() >= 500) break;
      bool ok = false;
      parse_us.add(time_us([&] { ok = fabric::parse_envelope(envelope).has_value(); }));
      result.check(ok, "an envelope of the chain does not parse");
    }
    const Bytes marshaled = block.marshal();
    bool ok = false;
    unmarshal_us.add(
        time_us([&] { ok = fabric::Block::unmarshal(marshaled).has_value(); }));
    result.check(ok, "a block of the chain does not unmarshal");
  }
  timer.stop();
  result.layers["wire.parse_envelope_us"] = timer.scaled(parse_us.median());
  result.layers["fabric.block_unmarshal_us"] =
      timer.scaled(unmarshal_us.median());
}

/// validate_and_commit over the probe chain; leaves the committed chain in
/// `ledger` for the storage probes.
void probe_validate(const ProbeInput& input,
                    std::span<const fabric::Block> blocks, std::uint64_t txs,
                    fabric::Ledger& ledger, Result& result) {
  fabric::StateDb db;
  const auto backend =
      fabric::make_software_backend(*input.msp, *input.policies);
  ScaledTimer timer;
  Samples block_ms;
  std::uint64_t valid = 0;
  for (const fabric::Block& block : blocks) {
    fabric::BlockValidationResult committed;
    block_ms.add(time_us([&] {
      committed = backend->validate_and_commit(block, db, ledger);
    }) / 1e3);
    valid += committed.valid_tx_count;
  }
  timer.stop();
  const fabric::ValidationStats& stats = backend->stats();
  const auto per_tx = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(txs);
  };
  result.layers["fabric.validate_block_ms"] = timer.scaled(block_ms.median());
  result.layers["crypto.verifies_per_tx"] = per_tx(stats.total_ecdsa_checks());
  result.layers["fabric.db_reads_per_tx"] = per_tx(stats.db_reads);
  result.layers["fabric.db_writes_per_tx"] = per_tx(stats.db_writes);
  result.layers["fabric.valid_share"] = per_tx(valid);
}

/// Commit, block log, snapshot and replay costs over the committed chain.
void probe_storage(const fabric::Ledger& committed, std::uint64_t txs,
                   const RunConfig& config, Result& result) {
  ScaledTimer timer;
  fabric::Ledger ledger;
  fabric::StateDb state;
  Samples append_us, batch_us, log_us;
  for (std::uint64_t n = 0; n < committed.height(); ++n) {
    const fabric::CommittedBlock& block = committed.at(n);
    fabric::Block copy = block.block;
    crypto::Digest hash{};
    append_us.add(time_us([&] { hash = ledger.append(std::move(copy)); }));
    result.check(hash == block.commit_hash,
                 "ledger append recomputed a different commit hash");
    fabric::StateDb::WriteBatch batch = valid_writes(block.block, state);
    batch_us.add(time_us([&] { state.commit_batch(std::move(batch)); }));
  }

  const TempDir dir(config.out_dir / "tmp");
  const std::string log_path = (dir.path() / "probe.log").string();
  {
    fabric::FileBlockStore store(log_path);
    for (std::uint64_t n = 0; n < committed.height(); ++n)
      log_us.add(time_us([&] { store.append(committed.at(n)); }));
    result.layers["fabric.log_bytes_per_tx"] =
        static_cast<double>(store.bytes_written()) / static_cast<double>(txs);
  }

  const std::string snap_path = (dir.path() / "probe.snap").string();
  fabric::StateSnapshotMeta meta;
  meta.height = ledger.height();
  meta.commit_hash = crypto::digest_bytes(ledger.last_commit_hash());
  meta.header_hash = crypto::digest_bytes(ledger.last().block.block_hash());
  Samples snapshot_ms, restore_ms, scan_ms, replay_ms;
  for (int i = 0; i < kWholeChainReps; ++i) {
    bool ok = false;
    snapshot_ms.add(time_us([&] { ok = state.snapshot(snap_path, meta); }) / 1e3);
    result.check(ok, "state snapshot failed");

    fabric::StateDb restored;
    restore_ms.add(time_us([&] { ok = restored.restore(snap_path).has_value(); }) / 1e3);
    result.check(ok && restored.size() == state.size(),
                 "state restore differs from the snapshot");

    fabric::FileBlockStore::RecoveredChain chain;
    scan_ms.add(time_us([&] { chain = fabric::FileBlockStore::recover(log_path); }) / 1e3);
    result.check(chain.blocks.size() == committed.height(),
                 "block log scan lost blocks");

    fabric::Ledger replayed;
    fabric::StateDb replayed_state;
    replay_ms.add(time_us([&] {
      ok = fabric::replay_chain(chain, replayed, &replayed_state);
    }) / 1e3);
    result.check(ok && replayed.last_commit_hash() == ledger.last_commit_hash(),
                 "replay from the block log reached a different tail hash");
  }
  timer.stop();
  result.layers["fabric.ledger_append_us"] = timer.scaled(append_us.median());
  result.layers["fabric.commit_batch_us"] = timer.scaled(batch_us.median());
  result.layers["fabric.log_append_us"] = timer.scaled(log_us.median());
  result.layers["fabric.snapshot_ms"] = timer.scaled(snapshot_ms.median());
  result.layers["fabric.restore_ms"] = timer.scaled(restore_ms.median());
  result.layers["fabric.log_scan_ms"] = timer.scaled(scan_ms.median());
  result.layers["fabric.replay_ms"] = timer.scaled(replay_ms.median());
}

void probe_bmac(const ProbeInput& input, std::span<const fabric::Block> blocks,
                std::uint64_t txs, const fabric::Ledger& expected,
                Result& result) {
  sim::Simulation sim;
  bmac::BmacPeer peer(sim, *input.msp, bmac::HwConfig{}, *input.policies);
  peer.start();
  bmac::ProtocolSender sender(*input.msp);
  ScaledTimer timer;
  Samples send_us, block_ms;
  double wire_bytes = 0, sim_wall_s = 0;
  for (const fabric::Block& block : blocks) {
    const auto block_start = Clock::now();
    bmac::SendResult sent;
    send_us.add(time_us([&] { sent = sender.send(block); }));
    wire_bytes += static_cast<double>(sent.bmac_size);
    for (bmac::BmacPacket& packet : sent.packets)
      peer.deliver_packet(std::move(packet));
    peer.deliver_block(block);
    sim_wall_s += time_us([&] { sim.run(); }) / 1e6;
    block_ms.add(seconds_since(block_start) * 1e3);
  }
  timer.stop();
  bool match = peer.ledger().height() == expected.height();
  for (std::uint64_t n = 0; match && n < expected.height(); ++n)
    match = peer.ledger().at(n).commit_hash == expected.at(n).commit_hash;
  result.check(match, "BMac probe peer diverges from the software backend");

  const auto& monitor = peer.processor().monitor();
  const double ecdsa =
      static_cast<double>(monitor.ecdsa_executed + monitor.ecdsa_skipped);
  const double events = static_cast<double>(sim.events_executed());
  result.layers["bmac.protocol_send_us"] = timer.scaled(send_us.median());
  result.layers["bmac.wire_bytes_per_tx"] =
      wire_bytes / static_cast<double>(txs);
  result.layers["bmac.peer_block_ms"] = timer.scaled(block_ms.median());
  result.layers["bmac.ecdsa_skipped_share"] =
      ecdsa > 0 ? static_cast<double>(monitor.ecdsa_skipped) / ecdsa : 0;
  result.layers["sim.events_per_tx"] = events / static_cast<double>(txs);
  result.layers["sim.events_per_s"] = events / timer.scaled(sim_wall_s);
}

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"crypto.verify_us", "us"},
      {"crypto.verifies_per_tx", "count"},
      {"crypto.sign_us", "us"},
      {"crypto.sha256_mb_s", "MB/s"},
      {"workload.sign_envelope_us", "us"},
      {"workload.next_block_ms", "ms"},
      {"wire.parse_envelope_us", "us"},
      {"fabric.block_unmarshal_us", "us"},
      {"fabric.validate_block_ms", "ms"},
      {"fabric.db_reads_per_tx", "count"},
      {"fabric.db_writes_per_tx", "count"},
      {"fabric.valid_share", "1"},
      {"fabric.commit_batch_us", "us"},
      {"fabric.ledger_append_us", "us"},
      {"fabric.log_append_us", "us"},
      {"fabric.log_bytes_per_tx", "B"},
      {"fabric.snapshot_ms", "ms"},
      {"fabric.log_scan_ms", "ms"},
      {"fabric.replay_ms", "ms"},
      {"fabric.restore_ms", "ms"},
      {"bmac.protocol_send_us", "us"},
      {"bmac.wire_bytes_per_tx", "B"},
      {"bmac.peer_block_ms", "ms"},
      {"bmac.ecdsa_skipped_share", "1"},
      {"sim.events_per_tx", "count"},
      {"sim.events_per_s", "1/s"},
      {"serve.crypto_share", "1"},
      {"cluster.steady_ms_per_block", "ms"},
      {"cluster.election_ms", "ms"},
      {"cluster.catch_up_ms", "ms"},
      {"cluster.transfer_bytes", "B"},
      {"cluster.validations_per_block", "count"},
      {"cluster.crypto_share", "1"},
      {"fabric.raft_duplicates_per_block", "count"},
      {"net.gossip_msgs_per_block", "count"},
      {"obs.trace_overhead_share", "1"},
  };
  return metrics;
}

void probe_layers(const ProbeInput& input, const RunConfig& config,
                  Result& result) {
  const std::vector<fabric::Block>& all = *input.blocks;
  std::size_t count = 0;
  std::uint64_t txs = 0;
  while (count < all.size() &&
         (count == 0 || txs + all[count].tx_count() <= kProbeTxs))
    txs += all[count++].tx_count();
  if (txs == 0) throw std::runtime_error("the workload left no txs to probe");
  const std::span<const fabric::Block> blocks(all.data(), count);

  workload::FabricNetworkHarness harness(input.network);
  fabric::Ledger committed;
  probe_validate(input, blocks, txs, committed, result);
  probe_crypto(blocks, harness, result);
  probe_workload(harness, config, result);
  probe_parse(blocks, result);
  probe_storage(committed, txs, config, result);
  probe_bmac(input, blocks, txs, committed, result);
}

Chain build_chain(const workload::NetworkOptions& options, int blocks,
                  Result& result) {
  Chain chain;
  timed_setup(
      result, kChainSetupReps,
      [&] {
        Chain made;
        made.harness = std::make_unique<workload::FabricNetworkHarness>(options);
        for (int b = 0; b < blocks; ++b) {
          made.blocks.push_back(made.harness->next_block());
          made.txs += made.blocks.back().tx_count();
        }
        return made;
      },
      [&](Chain made, int rep) {
        if (rep == 0) {
          chain = std::move(made);
          return;
        }
        result.check(made.harness->reference_ledger().last_commit_hash() ==
                         chain.harness->reference_ledger().last_commit_hash(),
                     "set-up " + std::to_string(rep) +
                         " built a different chain from the same seed");
      });
  return chain;
}

fabric::StateDb::WriteBatch valid_writes(const fabric::Block& block,
                                         const fabric::StateDb& db) {
  fabric::StateDb::WriteBatch batch = db.make_batch();
  for (std::size_t i = 0; i < block.tx_count(); ++i) {
    if (block.metadata.tx_flags[i] !=
        static_cast<std::uint8_t>(fabric::TxValidationCode::kValid))
      continue;
    const auto tx = fabric::parse_envelope(block.envelopes[i]);
    if (!tx) continue;
    const fabric::Version version{block.header.number,
                                  static_cast<std::uint32_t>(i)};
    for (const fabric::KVWrite& write : tx->rwset.writes)
      batch.add(fabric::StateDb::namespaced(tx->chaincode_id, write.key),
                write.value, version);
  }
  return batch;
}

double crypto_share(const Result& result, double verifies, double signs,
                    double wall_s) {
  const double busy_us = verifies * result.layers.at("crypto.verify_us") +
                         signs * result.layers.at("crypto.sign_us");
  return busy_us / 1e6 / wall_s;
}

}  // namespace perfbench
