#include "workload/synthetic.hpp"

#include "bmac/peer.hpp"

namespace bm::workload {

namespace {

using bmac::BlockEntry;
using bmac::BlockProcessor;
using bmac::EndsEntry;
using bmac::RdsetEntry;
using bmac::TxEntry;
using bmac::VerifyRequest;
using bmac::WrsetEntry;

/// Integer read/write counts per tx with error-diffusion dithering so the
/// block-average matches the fractional spec.
class Dither {
 public:
  explicit Dither(double per_tx) : per_tx_(per_tx) {}
  int next() {
    acc_ += per_tx_;
    const int n = static_cast<int>(acc_);
    acc_ -= n;
    return n;
  }

 private:
  double per_tx_;
  double acc_ = 0;
};

sim::Process feeder_proc(sim::Simulation& sim, BlockProcessor& proc,
                         const SyntheticSpec& spec,
                         std::vector<std::uint8_t> orgs) {
  Dither reads(spec.reads_per_tx);
  Dither writes(spec.writes_per_tx);
  std::uint64_t read_counter = 0;
  std::uint64_t write_counter = 0;
  const std::size_t write_space = spec.write_working_set != 0
                                      ? spec.write_working_set
                                      : spec.hw.db_capacity / 2;
  // Versions as the hardware will have committed them, so synthetic reads
  // carry matching expectations (every transaction stays mvcc-valid).
  std::vector<std::optional<fabric::Version>> versions(write_space);

  for (int b = 0; b < spec.blocks; ++b) {
    for (int i = 0; i < spec.block_size; ++i) {
      const int n_reads = reads.next();
      const int n_writes = writes.next();
      for (int j = 0; j < spec.ends_attached; ++j) {
        EndsEntry end;
        end.endorser = fabric::EncodedId::make(
            orgs[static_cast<std::size_t>(j) % orgs.size()],
            fabric::Role::kPeer, 0);
        end.verify = VerifyRequest::assumed(true);
        co_await proc.ends_fifo().put(std::move(end));
      }
      for (int j = 0; j < n_reads; ++j) {
        // Read a key from the write working set with the exact version the
        // hardware committed (or "absent" if never written): mvcc passes
        // while paying the real database access, on-chip or host tier.
        const std::size_t idx =
            static_cast<std::size_t>(read_counter * 7 + 13) % write_space;
        ++read_counter;
        co_await proc.rdset_fifo().put(
            RdsetEntry{"w" + std::to_string(idx), versions[idx]});
      }
      for (int j = 0; j < n_writes; ++j) {
        const std::size_t idx =
            static_cast<std::size_t>(write_counter++) % write_space;
        versions[idx] = fabric::Version{static_cast<std::uint64_t>(b),
                                        static_cast<std::uint32_t>(i)};
        co_await proc.wrset_fifo().put(
            WrsetEntry{"w" + std::to_string(idx), to_bytes("v")});
      }
      TxEntry tx;
      tx.block_num = static_cast<std::uint64_t>(b);
      tx.tx_seq = static_cast<std::uint32_t>(i);
      tx.chaincode_id = spec.chaincode;
      tx.verify = VerifyRequest::assumed(true);
      tx.endorsement_count = static_cast<std::uint16_t>(spec.ends_attached);
      tx.read_count = static_cast<std::uint16_t>(n_reads);
      tx.write_count = static_cast<std::uint16_t>(n_writes);
      co_await proc.tx_fifo().put(std::move(tx));
    }
    // Like the real protocol_processor, the block entry completes last
    // (after the metadata section).
    BlockEntry block;
    block.block_num = static_cast<std::uint64_t>(b);
    block.tx_count = static_cast<std::uint32_t>(spec.block_size);
    block.verify = VerifyRequest::assumed(true);
    co_await proc.block_fifo().put(std::move(block));
    (void)sim;
  }
}

struct DrainState {
  sim::Time last_result_at = 0;
  sim::Time block_latency_sum = 0;
  sim::Time tx_latency_sum = 0;
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
};

sim::Process host_drain_proc(sim::Simulation& sim, BlockProcessor& proc,
                             int blocks, DrainState* state,
                             obs::Tracer* tracer, int lane) {
  const bmac::HwTimingModel& t = proc.config().timing;
  for (int b = 0; b < blocks; ++b) {
    bmac::ResultEntry result = co_await proc.reg_map().get();
    const sim::Time commit_start = sim.now();
    co_await sim.delay(t.host_result_read);
    state->last_result_at = sim.now();
    state->block_latency_sum +=
        result.stats.validate_end - result.stats.validate_start;
    state->tx_latency_sum += result.stats.tx_latency_sum;
    state->blocks += 1;
    state->txs += result.flags.size();
    // Ledger commit overlaps hardware validation of the next block.
    co_await sim.delay(t.ledger_commit_fixed +
                       t.ledger_commit_per_tx *
                           static_cast<sim::Time>(result.flags.size()));
    if (tracer != nullptr) {
      tracer->complete(
          lane, "host_commit", "host-commit", commit_start, sim.now(),
          {{"block", result.block_num},
           {"txs", static_cast<std::uint64_t>(result.flags.size())}});
    }
  }
}

}  // namespace

HwRunResult run_hw_workload(const SyntheticSpec& spec) {
  fabric::Msp msp;
  std::vector<std::string> org_names;
  for (int i = 1; i <= spec.org_count; ++i) {
    org_names.push_back("Org" + std::to_string(i));
    msp.add_org(org_names.back());
  }
  std::map<std::string, fabric::EndorsementPolicy> policies;
  policies.emplace(spec.chaincode,
                   fabric::parse_policy_or_throw(spec.policy_text, org_names));

  std::vector<std::uint8_t> orgs;
  for (int i = 0; i < spec.ends_attached; ++i)
    orgs.push_back(static_cast<std::uint8_t>(1 + i % spec.org_count));

  sim::Simulation sim;
  BlockProcessor processor(sim, spec.hw,
                           bmac::compile_policies(policies, msp));
  fabric::StateDb host_state;
  if (spec.host_backed_db) processor.statedb().attach_host_store(&host_state);
  // Lanes land in the tracer's current process — callers that run several
  // configurations call begin_process() with a label before each run.
  int host_lane = 0;
  processor.attach_observability(spec.registry, spec.tracer);
  if (spec.tracer != nullptr) host_lane = spec.tracer->lane("host_commit");
  processor.start();

  DrainState drain;
  sim.spawn(feeder_proc(sim, processor, spec, std::move(orgs)));
  sim.spawn(host_drain_proc(sim, processor, spec.blocks, &drain, spec.tracer,
                            host_lane));
  sim.run();
  processor.publish_metrics();

  HwRunResult result;
  result.sim_seconds =
      static_cast<double>(drain.last_result_at) / sim::kSecond;
  result.total_txs = drain.txs;
  result.valid_txs = processor.monitor().valid_transactions;
  result.tps = result.sim_seconds > 0
                   ? static_cast<double>(drain.txs) / result.sim_seconds
                   : 0;
  if (drain.blocks > 0)
    result.block_latency_ms = static_cast<double>(drain.block_latency_sum) /
                              static_cast<double>(drain.blocks) /
                              sim::kMillisecond;
  if (drain.txs > 0)
    result.tx_latency_us = static_cast<double>(drain.tx_latency_sum) /
                           static_cast<double>(drain.txs) / sim::kMicrosecond;
  result.ecdsa_executed = processor.monitor().ecdsa_executed;
  result.ecdsa_skipped = processor.monitor().ecdsa_skipped;
  result.db_overflows = processor.statedb().overflows();
  result.db_evictions = processor.statedb().evictions();
  result.db_host_accesses = processor.statedb().host_accesses();
  result.events_executed = sim.events_executed();
  return result;
}

SwRunResult run_sw_model(const SyntheticSpec& spec, int vcpus) {
  std::vector<std::string> org_names;
  for (int i = 1; i <= spec.org_count; ++i)
    org_names.push_back("Org" + std::to_string(i));
  const fabric::EndorsementPolicy policy =
      fabric::parse_policy_or_throw(spec.policy_text, org_names);

  fabric::SwBlockWorkload workload;
  workload.n_tx = spec.block_size;
  // Fabric verifies every attached endorsement, irrespective of the policy.
  workload.endorsements_verified_per_tx = spec.ends_attached;
  workload.policy_literals = policy.literal_references();
  workload.db_reads_per_tx = spec.reads_per_tx;
  workload.db_writes_per_tx = spec.writes_per_tx;
  workload.vcpus = vcpus;

  const fabric::SwTimingModel model;
  SwRunResult result;
  result.validator_tps = model.throughput_tps(workload);
  result.block_latency_ms =
      static_cast<double>(model.block_latency(workload)) / sim::kMillisecond;
  result.endorser_tps =
      static_cast<double>(workload.n_tx) /
      (static_cast<double>(model.endorser_block_latency(workload)) /
       sim::kSecond);
  return result;
}

}  // namespace bm::workload
