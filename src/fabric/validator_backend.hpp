// make_software_backend: a heap-allocated SoftwareValidator.
//
// The library, tools, benches and tests construct fabric::SoftwareValidator
// directly; this helper remains for the wall-clock benchmark (perfbench/),
// which calls it.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "fabric/validator.hpp"

namespace bm::fabric {

/// A SoftwareValidator with `parallelism` step-2 worker threads
/// (1 = sequential, 0 = BM_VALIDATOR_THREADS). The MSP must outlive it.
std::unique_ptr<SoftwareValidator> make_software_backend(
    const Msp& msp, std::map<std::string, EndorsementPolicy> policies,
    unsigned parallelism = 0);

}  // namespace bm::fabric
