// Ablation: commit-path scale-out of the shipped software backend.
//
// Part 1 sweeps the StateDb shard count under a multi-threaded batched
// commit: one write-batch per block, applied with a worker pool, shards
// {1, 2, 4, 8, 16}. With one shard every worker serializes on one mutex;
// with enough shards the batch applies in parallel.
//
// Part 2 measures REAL wall-clock software validation (full parse + ECDSA
// + MVCC + batched commit, no simulated timing) on a read+write transfer
// workload: the sequential backend against parallel vscc at 1/2/4/8
// threads. MVCC stays the in-order walk at every thread count, as in
// Fabric. The parallel lanes must produce byte-identical commit hashes to
// the sequential lane — that equality always gates the exit code; the
// >= 4x speedup gate only applies when the host actually has >= 8
// hardware threads (on smaller hosts the caveat is printed and the gate
// skipped).
//
// `--quick` shrinks every part for CI smoke runs; all correctness gates
// still apply at the reduced sizes.
#include <chrono>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "fabric/orderer.hpp"
#include "fabric/validator.hpp"

namespace {

using namespace bm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  fabric::Msp msp;
  std::map<std::string, fabric::EndorsementPolicy> policies;
  std::vector<fabric::Block> blocks;
  std::size_t total_txs = 0;
};

struct Fixture {
  fabric::Identity client;
  fabric::Identity peer1;
  fabric::Identity peer2;
  fabric::Identity orderer;
};

Fixture make_fixture(Workload& w) {
  auto& org1 = w.msp.add_org("Org1");
  auto& org2 = w.msp.add_org("Org2");
  Fixture f{.client = org1.issue(fabric::Role::kClient, 0, "c0"),
            .peer1 = org1.issue(fabric::Role::kPeer, 0, "p0.org1"),
            .peer2 = org2.issue(fabric::Role::kPeer, 0, "p0.org2"),
            .orderer = org1.issue(fabric::Role::kOrderer, 0, "o0")};
  w.policies.emplace("smallbank", fabric::parse_policy_or_throw(
                                      "2-outof-2 orgs", w.msp.org_names()));
  return f;
}

/// Read+write workload for the thread sweep. Every transaction reads two
/// keys unique to it (absent from the DB, so the read always validates)
/// and writes two shared account keys; every fourth transaction
/// additionally writes a key the PREVIOUS transaction read. Because MVCC
/// decides the reader before that write lands, nothing is invalidated and
/// the whole workload commits valid.
Workload transfer_workload(int blocks, int block_size, int accounts) {
  Workload w;
  const Fixture f = make_fixture(w);
  fabric::Orderer orderer(
      f.orderer, fabric::Orderer::Config{
                     .max_tx_per_block = static_cast<std::size_t>(block_size)});

  for (int b = 0; b < blocks; ++b) {
    for (int i = 0; i < block_size; ++i) {
      fabric::TxProposal proposal;
      proposal.channel_id = "ch";
      proposal.chaincode_id = "smallbank";
      proposal.tx_id = "t" + std::to_string(b) + "_" + std::to_string(i);
      const std::string stem =
          "r" + std::to_string(b) + "_" + std::to_string(i);
      proposal.rwset.reads.push_back({stem + "a", std::nullopt});
      proposal.rwset.reads.push_back({stem + "b", std::nullopt});
      proposal.rwset.writes.push_back(
          {"acct" + std::to_string((2 * i) % accounts), to_bytes("v")});
      proposal.rwset.writes.push_back(
          {"acct" + std::to_string((2 * i + 1) % accounts), to_bytes("w")});
      if (i % 4 == 3)
        proposal.rwset.writes.push_back(
            {"r" + std::to_string(b) + "_" + std::to_string(i - 1) + "a",
             to_bytes("x")});
      if (auto block = orderer.submit(fabric::build_envelope(
              proposal, f.client, {&f.peer1, &f.peer2})))
        w.blocks.push_back(*std::move(block));
    }
    w.total_txs += static_cast<std::size_t>(block_size);
  }
  if (auto block = orderer.flush()) w.blocks.push_back(*std::move(block));
  return w;
}

struct LaneResult {
  double tps = 0;
  crypto::Digest final_hash{};
};

LaneResult run_lane(const Workload& w, unsigned parallelism) {
  fabric::SoftwareValidator validator(w.msp, w.policies, parallelism);
  fabric::StateDb db;
  fabric::Ledger ledger;
  const auto start = Clock::now();
  for (const auto& block : w.blocks)
    validator.validate_and_commit(block, db, ledger);
  const double elapsed = seconds_since(start);
  LaneResult result;
  result.tps = static_cast<double>(w.total_txs) / elapsed;
  result.final_hash = ledger.last().commit_hash;
  return result;
}

/// Part 1: commit-only write rate of one batched commit per block.
void shard_sweep(int batches, int writes_per_batch, unsigned workers) {
  bench::title("StateDb shard-count sweep, batched commit");
  std::printf("%d batches x %d writes, %u worker threads (host has %u "
              "hardware threads)\n",
              batches, writes_per_batch, workers,
              std::thread::hardware_concurrency());
  std::printf("%8s %16s %10s\n", "shards", "writes/s", "vs 1 shard");
  bench::rule(40);

  ThreadPool pool(workers);
  double base = 0;
  for (const std::size_t shards : {1, 2, 4, 8, 16}) {
    fabric::StateDb db(shards);
    double elapsed = 0;  // commit time only: batch building is untimed
    for (int b = 0; b < batches; ++b) {
      fabric::StateDb::WriteBatch batch = db.make_batch();
      for (int i = 0; i < writes_per_batch; ++i)
        batch.add("acct" + std::to_string(i),
                  to_bytes("balance" + std::to_string(b)),
                  fabric::Version{static_cast<std::uint64_t>(b),
                                  static_cast<std::uint32_t>(i)});
      const auto start = Clock::now();
      db.commit_batch(std::move(batch), &pool);
      elapsed += seconds_since(start);
    }
    const double rate =
        static_cast<double>(batches) * writes_per_batch / elapsed;
    if (shards == 1) base = rate;
    std::printf("%8zu %16.0f %9.2fx\n", shards, rate, rate / base);
  }
  bench::rule(40);
}

/// Part 2: sequential baseline vs parallel vscc. Returns false if any
/// parallel lane's commit hash diverges from the sequential lane — that is
/// the only unconditional failure here.
bool thread_sweep(int blocks, int block_size, bool* speedup_ok) {
  bench::title("Parallel vscc (full validate_and_commit)");
  const Workload w = transfer_workload(blocks, block_size, /*accounts=*/64);
  std::printf("transfer workload: %d blocks x %d txs, 2 reads + 2-3 writes "
              "per tx\n",
              blocks, block_size);

  const LaneResult seq = run_lane(w, 1);
  std::printf("%-30s %10s %10s\n", "configuration", "tps", "speedup");
  bench::rule(52);
  std::printf("%-30s %10.0f %9.2fx\n", "sequential, 1 thread", seq.tps, 1.0);

  bool hashes_match = true;
  double best = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const LaneResult par = run_lane(w, threads);
    std::printf("%-30s %10.0f %9.2fx\n",
                ("parallel vscc, " + std::to_string(threads) + " threads")
                    .c_str(),
                par.tps, par.tps / seq.tps);
    hashes_match = hashes_match && par.final_hash == seq.final_hash;
    best = std::max(best, par.tps / seq.tps);
  }
  bench::rule(52);
  std::printf("commit hashes identical to sequential lane: %s\n",
              hashes_match ? "PASS" : "FAIL");

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 8) {
    *speedup_ok = best >= 4.0;
    std::printf("acceptance: >= 4x at 8 threads: %s (best %.2fx)\n",
                *speedup_ok ? "PASS" : "FAIL", best);
  } else {
    *speedup_ok = true;
    std::printf("acceptance: >= 4x gate SKIPPED — host has %u hardware "
                "thread(s); the speedup is bounded by physical cores "
                "(best %.2fx here).\n",
                hw, best);
  }
  return hashes_match;
}

}  // namespace

int main(int argc, char** argv) {
  // Wall-clock bench: the obs flags are accepted for uniformity but there
  // is no simulated pipeline to trace here.
  bench::Observability obs(argc, argv);
  (void)obs;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  shard_sweep(/*batches=*/quick ? 10 : 50,
              /*writes_per_batch=*/quick ? 4096 : 32768, /*workers=*/8);

  bool speedup_ok = true;
  const bool hashes_match =
      thread_sweep(quick ? 4 : 16, quick ? 50 : 120, &speedup_ok);

  std::printf("paper tie-in: the sharded batch commit mirrors the "
              "hardware's per-block\nwrite burst into the on-chip KVS (one "
              "version stamp per block); parallel\nvscc is the software "
              "counterpart of the tx_validator replicas.\n");
  return hashes_match && speedup_ok ? 0 : 1;
}
