// Chaincode workload models: smallbank and drm (Hyperledger Caliper
// benchmarks [19], the applications evaluated in §4).
//
// A chaincode here is an endorsement-phase executor: given an operation, it
// reads the endorser's committed state (recording versions into the read
// set) and produces the write set — the execute step of execute-order-
// validate. The smallbank model implements the classic banking operations
// (create account, deposit, withdraw, send payment, amalgamate); drm models
// digital-asset management (create asset, update asset, transfer rights).
#pragma once

#include "common/rng.hpp"
#include "fabric/statedb.hpp"

namespace bm::workload {

/// A generated operation: the rwset produced by endorsement-time execution.
struct ChaincodeResult {
  std::string op;
  fabric::ReadWriteSet rwset;
};

class SmallbankChaincode {
 public:
  struct Config {
    std::uint32_t accounts = 2000;
    /// Zipf exponent over account ids (hot-key skew); 0 keeps the classic
    /// uniform pick and is draw-for-draw identical to the pre-knob model.
    double zipf_s = 0.0;
  };

  explicit SmallbankChaincode(Config config)
      : config_(config),
        account_pick_(config.accounts > 0 ? config.accounts : 1,
                      config.zipf_s) {}

  static constexpr const char* kName = "smallbank";

  /// Execute a random operation against committed state.
  ChaincodeResult execute(Rng& rng, const fabric::StateDb& state) const;

  /// Average db accesses per op (feeds the software timing model).
  double avg_reads() const;
  double avg_writes() const;

 private:
  ChaincodeResult create_account(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult transact_savings(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult deposit_checking(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult send_payment(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult amalgamate(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult write_check(Rng& rng, const fabric::StateDb& s) const;

  /// Account id draw: Zipf(zipf_s) over [0, accounts); uniform at s = 0.
  std::uint64_t pick_account(Rng& rng) const;

  Config config_;
  Zipf account_pick_;
};

class DrmChaincode {
 public:
  struct Config {
    std::uint32_t assets = 2000;
  };

  explicit DrmChaincode(Config config) : config_(config) {}

  static constexpr const char* kName = "drm";

  ChaincodeResult execute(Rng& rng, const fabric::StateDb& state) const;

  double avg_reads() const;
  double avg_writes() const;

 private:
  ChaincodeResult create_asset(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult update_asset(Rng& rng, const fabric::StateDb& s) const;
  ChaincodeResult transfer_rights(Rng& rng, const fabric::StateDb& s) const;

  Config config_;
};

}  // namespace bm::workload
