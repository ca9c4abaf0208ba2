#include "workload/deployment.hpp"

#include <algorithm>

#include "common/config.hpp"

namespace bm::workload::detail {

config::Range org_count() { return config::Range{1, 255}; }

void check_policy(const config::Section& s, const std::string& text,
                  int orgs) {
  std::vector<std::string> names;
  for (int i = 1; i <= orgs; ++i) names.push_back("Org" + std::to_string(i));
  const std::string universe = "Org1..Org" + std::to_string(orgs);
  const auto policy = fabric::parse_policy(text, names);
  if (const auto* error = std::get_if<fabric::PolicyParseError>(&policy)) {
    s.fail_key("policy", "does not parse against " + universe + ": " +
                             error->message + " at offset " +
                             std::to_string(error->position));
    return;
  }
  for (const fabric::PolicyPrincipal& principal :
       std::get<fabric::EndorsementPolicy>(policy).principals())
    if (std::find(names.begin(), names.end(), principal.org) == names.end()) {
      s.fail_key("policy", "names " + principal.org + ", outside " + universe);
      return;
    }
}

Deployment parse_bmac_section(const config::Section& root) {
  Deployment deployment;
  NetworkOptions& network = deployment.network;
  root.read_int("orgs", &network.orgs, org_count());
  root.read_enum<ChaincodeKind>("chaincode", &network.chaincode,
                                {{"smallbank", ChaincodeKind::kSmallbank},
                                 {"drm", ChaincodeKind::kDrm}});
  root.read_string("policy", &network.policy_text);
  check_policy(root, network.policy_text, network.orgs);

  const config::Section hw = root.object("hardware");
  hw.read_int("tx_validators", &deployment.hw.tx_validators,
              config::at_least(1));
  hw.read_int("engines_per_vscc", &deployment.hw.engines_per_vscc,
              config::at_least(1));
  hw.read_size("max_block_txs", &deployment.hw.max_block_txs,
               config::at_least(1));
  hw.read_size("db_capacity", &deployment.hw.db_capacity,
               config::at_least(1));
  return deployment;
}

}  // namespace bm::workload::detail
