#include "fabric/validator_backend.hpp"

namespace bm::fabric {

std::unique_ptr<SoftwareValidator> make_software_backend(
    const Msp& msp, std::map<std::string, EndorsementPolicy> policies,
    unsigned parallelism) {
  return std::make_unique<SoftwareValidator>(msp, std::move(policies),
                                             parallelism);
}

}  // namespace bm::fabric
