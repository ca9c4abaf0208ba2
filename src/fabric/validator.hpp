// Software-only validator peer: the functional validation/commit pipeline.
//
// Implements the five steps of Fig. 1a faithfully, including Fabric's
// quirks that the paper measures against:
//   - vscc verifies EVERY endorsement signature regardless of the policy
//     ("Fabric implementation always verifies all the endorsements of a
//     transaction, irrespective of the policy", §4.3) — the contrast to the
//     hardware short-circuit evaluator in Fig. 7e;
//   - mvcc runs sequentially over transactions in order, comparing read-set
//     versions against committed state and against earlier valid
//     transactions of the same block;
//   - commit applies write sets at version {block, tx} and appends the
//     flagged block to the ledger.
// Instrumentation counters feed the calibrated timing model used by the
// performance benches.
#pragma once

#include <map>
#include <memory>

#include "common/thread_pool.hpp"
#include "fabric/ledger.hpp"
#include "fabric/policy.hpp"
#include "fabric/statedb.hpp"
#include "fabric/transaction.hpp"
#include "obs/metrics.hpp"

namespace bm::fabric {

struct ValidationStats {
  std::uint64_t blocks_processed = 0;
  std::uint64_t block_signature_checks = 0;
  std::uint64_t creator_signature_checks = 0;
  std::uint64_t endorsement_signature_checks = 0;
  std::uint64_t db_reads = 0;
  std::uint64_t db_writes = 0;
  std::uint64_t envelopes_parsed = 0;

  std::uint64_t total_ecdsa_checks() const {
    return block_signature_checks + creator_signature_checks +
           endorsement_signature_checks;
  }

  ValidationStats& operator+=(const ValidationStats& o) {
    blocks_processed += o.blocks_processed;
    block_signature_checks += o.block_signature_checks;
    creator_signature_checks += o.creator_signature_checks;
    endorsement_signature_checks += o.endorsement_signature_checks;
    db_reads += o.db_reads;
    db_writes += o.db_writes;
    envelopes_parsed += o.envelopes_parsed;
    return *this;
  }
};

struct BlockValidationResult {
  bool block_valid = false;
  std::vector<TxValidationCode> flags;
  std::uint32_t valid_tx_count = 0;
  crypto::Digest commit_hash{};  ///< zero when the block was rejected
};

class SoftwareValidator {
 public:
  /// `policies` maps chaincode id -> endorsement policy. Transactions whose
  /// chaincode has no registered policy are marked invalid.
  ///
  /// `parallelism` is the number of threads used for per-transaction
  /// verification + vscc (step 2): 1 = sequential, 0 = read the
  /// BM_VALIDATOR_THREADS environment variable (default 1). Validation flags,
  /// commit order, stats, and the calibrated DES timing derived from them are
  /// byte-identical to the sequential path at any setting — only wall-clock
  /// time changes.
  SoftwareValidator(const Msp& msp,
                    std::map<std::string, EndorsementPolicy> policies,
                    unsigned parallelism = 0);

  /// Reconfigure the worker pool; same semantics as the constructor arg.
  void set_parallelism(unsigned parallelism);
  unsigned parallelism() const { return pool_ ? pool_->concurrency() : 1; }

  /// Run the full pipeline on one block, mutating the state DB and ledger.
  BlockValidationResult validate_and_commit(const Block& block, StateDb& db,
                                            Ledger& ledger,
                                            HistoryDb* history = nullptr);

  const ValidationStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ValidationStats{}; }

  /// Publish the lifetime ValidationStats as counters under "<prefix>_..."
  /// (snapshot-style, idempotent).
  void publish_metrics(obs::Registry& registry,
                       const std::string& prefix) const;

 private:
  bool verify_block_signature(const Block& block);
  /// Pure with respect to the validator: counters accumulate into `stats`
  /// so the parallel path can aggregate per-transaction deltas in tx order.
  TxValidationCode validate_transaction(const ParsedTransaction& tx,
                                        ValidationStats& stats) const;

  const Msp& msp_;
  std::map<std::string, EndorsementPolicy> policies_;
  ValidationStats stats_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when sequential
};

}  // namespace bm::fabric
