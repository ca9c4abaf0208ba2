// Functional Fabric network harness: organizations, identities, clients,
// endorsers and an orderer, producing real endorsed blocks.
//
// This is the Caliper-equivalent driver for the functional experiments: it
// executes chaincode operations against committed endorsement state (so
// read-set versions are realistic), gathers endorsements from the peers
// named by the chaincode's policy, signs envelopes with real ECDSA and cuts
// real blocks. Fault-injection knobs produce transactions that must fail
// validation (bad client signature, insufficient endorsements, forced mvcc
// conflicts) — used to exercise every invalid path in both validators.
#pragma once

#include "fabric/durability.hpp"
#include "fabric/orderer.hpp"
#include "fabric/validator.hpp"
#include "workload/chaincode.hpp"

namespace bm::workload {

enum class ChaincodeKind { kSmallbank, kDrm };

struct NetworkOptions {
  int orgs = 2;
  ChaincodeKind chaincode = ChaincodeKind::kSmallbank;
  std::string policy_text = "2-outof-2 orgs";
  std::size_t block_size = 100;
  std::uint64_t seed = 42;
  SmallbankChaincode::Config smallbank{};
  DrmChaincode::Config drm{};

  // Fault injection rates in [0,1].
  double bad_signature_rate = 0.0;
  double missing_endorsement_rate = 0.0;
  double conflicting_read_rate = 0.0;  ///< stale read-set versions

  /// Durable ledger: when ledger_path is set, every reference-committed
  /// block is appended to the on-disk block log and StateDb snapshots are
  /// cut on schedule (docs/DURABILITY.md).
  fabric::DurabilityConfig durability;
};

/// One transaction's worth of endorsement work, prepared but not yet
/// signed: the executed proposal plus who endorses and who signs it (the
/// fault-injection knobs may have picked the rogue client or dropped
/// endorsers). Drafts reference the harness's identities, so they must not
/// outlive it. Splitting "decide" (prepare_tx, sequential, consumes the
/// harness rng and reads endorsement state) from "sign" (sign_envelopes,
/// pure ECDSA over the drafts) lets the serve layer sign a whole batch at
/// once, across a thread pool, while keeping the schedule deterministic.
using TxDraft = fabric::TxDraft;

class FabricNetworkHarness {
 public:
  explicit FabricNetworkHarness(NetworkOptions options);

  const fabric::Msp& msp() const { return msp_; }
  const std::map<std::string, fabric::EndorsementPolicy>& policies() const {
    return policies_;
  }
  const fabric::Identity& orderer_identity() const {
    return orderer_->identity();
  }
  const std::string& chaincode_name() const { return chaincode_name_; }

  /// Produce the next fully endorsed block. Internally commits it to the
  /// harness's endorsement state so subsequent blocks read fresh versions.
  fabric::Block next_block();

  // --- step-wise (submit/collect) path --------------------------------------
  // The open-loop serving front end (src/serve) and next_block() share this
  // one endorsement-state path: next_block() is exactly
  // submit_envelope(sign_envelope(prepare_tx())) until a block cuts,
  // followed by commit_block().

  /// Execute the chaincode against committed endorsement state and apply the
  /// per-tx fault-injection knobs. Sequential: consumes the harness rng.
  TxDraft prepare_tx();

  /// Client-sign and endorse drafts into wire envelopes
  /// (fabric::build_envelopes: one signing batch for the endorsements, one
  /// for the clients). Pure function of the drafts (deterministic ECDSA) —
  /// safe to call from worker threads for distinct drafts.
  std::vector<Bytes> sign_envelopes(std::span<const TxDraft> drafts) const;

  /// One draft: a batch of one.
  Bytes sign_envelope(const TxDraft& draft) const;

  /// Enqueue an endorsed envelope with the orderer; returns a cut block when
  /// the batch fills (NetworkOptions::block_size).
  std::optional<fabric::Block> submit_envelope(Bytes envelope);

  /// Cut whatever is pending into a block (batch-timeout path); nullopt if
  /// nothing is pending.
  std::optional<fabric::Block> flush_block();

  /// Reference-commit a block this harness produced, so the endorsement
  /// state observes it and reference_result() is recorded.
  const fabric::BlockValidationResult& commit_block(const fabric::Block& block);

  /// A block whose orderer signature is corrupted (block_verify must fail).
  fabric::Block next_tampered_block();

  /// The harness's own (reference) validation result for a block it
  /// produced — what any correct validator must compute.
  const fabric::BlockValidationResult& reference_result(
      std::uint64_t block_num) const {
    return reference_results_.at(block_num);
  }

  const fabric::StateDb& endorsement_state() const { return state_; }
  const fabric::Ledger& reference_ledger() const { return ledger_; }
  /// Non-null when NetworkOptions::durability is enabled.
  const fabric::DurableLedger* durable() const { return durable_.get(); }
  fabric::DurableLedger* durable() { return durable_.get(); }

 private:
  ChaincodeResult execute_chaincode();

  NetworkOptions options_;
  Rng rng_;
  fabric::Msp msp_;
  std::string chaincode_name_;
  std::map<std::string, fabric::EndorsementPolicy> policies_;

  std::vector<fabric::Identity> endorsers_;  ///< one peer per org
  fabric::Identity client_;
  fabric::Identity rogue_client_;  ///< valid cert, signs with the wrong key
  std::unique_ptr<fabric::Orderer> orderer_;

  std::optional<SmallbankChaincode> smallbank_;
  std::optional<DrmChaincode> drm_;

  // Reference pipeline (endorsement state evolves with committed blocks).
  fabric::StateDb state_;
  fabric::Ledger ledger_;
  std::unique_ptr<fabric::DurableLedger> durable_;
  std::unique_ptr<fabric::SoftwareValidator> reference_validator_;
  std::map<std::uint64_t, fabric::BlockValidationResult> reference_results_;

  std::uint64_t next_tx_id_ = 0;
};

}  // namespace bm::workload
