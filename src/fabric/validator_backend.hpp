// ValidatorBackend: the seam between "something that validates and commits
// blocks" and everything that drives one.
//
// The pure-software pipeline (SoftwareValidator) implements it; it serves as
// the harness reference peer, cluster peers, and the BMac peer's fallback
// while the accelerator is degraded. Harnesses, benches, and the simulator
// only ever need the four operations below, so they take this interface and
// a factory instead of a concrete class:
// swapping backends is a one-line change at the call site, and equivalence
// ("identical flags and commit hashes through every backend") is testable
// by construction.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "fabric/ledger.hpp"
#include "fabric/policy.hpp"
#include "fabric/statedb.hpp"
#include "fabric/transaction.hpp"

namespace bm::obs {
class Registry;
}  // namespace bm::obs

namespace bm::fabric {

struct ValidationStats;
struct BlockValidationResult;

class ValidatorBackend {
 public:
  virtual ~ValidatorBackend() = default;

  /// Run the full validate/commit pipeline on one block, mutating the state
  /// DB and ledger (and the history index, when given). Every backend must
  /// produce byte-identical flags and commit hashes for the same inputs.
  virtual BlockValidationResult validate_and_commit(
      const Block& block, StateDb& db, Ledger& ledger,
      HistoryDb* history = nullptr) = 0;

  /// Lifetime pipeline counters (signature checks, db traffic, ...).
  virtual const ValidationStats& stats() const = 0;
  virtual void reset_stats() = 0;

  /// Publish the stats as "<prefix>_..." counters (snapshot-style).
  virtual void publish_metrics(obs::Registry& registry,
                               const std::string& prefix) const = 0;
};

/// How a harness asks for "a validator" without naming the implementation.
/// The MSP must outlive the returned backend.
using ValidatorBackendFactory = std::function<std::unique_ptr<ValidatorBackend>(
    const Msp& msp, std::map<std::string, EndorsementPolicy> policies)>;

struct SoftwareBackendOptions {
  /// Step-2 worker threads: 1 = sequential, 0 = BM_VALIDATOR_THREADS env.
  unsigned parallelism = 0;
};

/// The default backend: a SoftwareValidator with the given options.
std::unique_ptr<ValidatorBackend> make_software_backend(
    const Msp& msp, std::map<std::string, EndorsementPolicy> policies,
    SoftwareBackendOptions options = {});

/// A factory producing make_software_backend with fixed options.
ValidatorBackendFactory software_backend_factory(
    SoftwareBackendOptions options = {});

}  // namespace bm::fabric
