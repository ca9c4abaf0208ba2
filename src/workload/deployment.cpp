#include "workload/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/config.hpp"

namespace bm::workload::detail {

namespace {

/// A count in [1, max]: a fraction or a string fails instead of truncating.
template <typename T>
void read_count(const config::Section& s, std::string_view key, T* out,
                int max = std::numeric_limits<int>::max()) {
  const config::Section value = s.member(key);
  if (!value.present()) return;
  const double n = value.is_number() ? value.raw()->number : 0;
  if (n < 1 || n > max || n != std::floor(n))
    s.fail_key(key, "expected an integer in [1, " + std::to_string(max) + "]");
  else
    *out = static_cast<T>(n);
}

}  // namespace

Deployment parse_bmac_section(const config::Section& root) {
  Deployment deployment;
  NetworkOptions& network = deployment.network;
  // An encoded id carries the org index in 8 bits.
  read_count(root, "orgs", &network.orgs, 255);
  root.read_enum<ChaincodeKind>("chaincode", &network.chaincode,
                                {{"smallbank", ChaincodeKind::kSmallbank},
                                 {"drm", ChaincodeKind::kDrm}});
  root.read_string("policy", &network.policy_text);

  std::vector<std::string> orgs;
  for (int i = 1; i <= network.orgs; ++i)
    orgs.push_back("Org" + std::to_string(i));
  const std::string universe = "Org1..Org" + std::to_string(network.orgs);
  const auto policy = fabric::parse_policy(network.policy_text, orgs);
  if (const auto* error = std::get_if<fabric::PolicyParseError>(&policy)) {
    root.fail_key("policy", "does not parse against " + universe + ": " +
                                error->message + " at offset " +
                                std::to_string(error->position));
  } else {
    for (const fabric::PolicyPrincipal& principal :
         std::get<fabric::EndorsementPolicy>(policy).principals())
      if (std::find(orgs.begin(), orgs.end(), principal.org) == orgs.end()) {
        root.fail_key("policy", "names " + principal.org + ", outside " +
                                    universe);
        break;
      }
  }

  const config::Section hw = root.object("hardware");
  read_count(hw, "tx_validators", &deployment.hw.tx_validators);
  read_count(hw, "engines_per_vscc", &deployment.hw.engines_per_vscc);
  read_count(hw, "max_block_txs", &deployment.hw.max_block_txs);
  read_count(hw, "db_capacity", &deployment.hw.db_capacity);
  return deployment;
}

}  // namespace bm::workload::detail
