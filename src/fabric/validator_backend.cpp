#include "fabric/validator_backend.hpp"

#include "fabric/validator.hpp"

namespace bm::fabric {

std::unique_ptr<ValidatorBackend> make_software_backend(
    const Msp& msp, std::map<std::string, EndorsementPolicy> policies,
    SoftwareBackendOptions options) {
  return std::make_unique<SoftwareValidator>(msp, std::move(policies),
                                             options.parallelism);
}

ValidatorBackendFactory software_backend_factory(
    SoftwareBackendOptions options) {
  return [options](const Msp& msp,
                   std::map<std::string, EndorsementPolicy> policies) {
    return make_software_backend(msp, std::move(policies), options);
  };
}

}  // namespace bm::fabric
