// Endorsement policies as hardware: parse policy expressions, compile them
// to the combinational circuits of the ends_policy_evaluator (§3.3), and
// show how short-circuit evaluation changes the number of ECDSA engine
// invocations — the adaptability story of Figs. 7e/7f.
//
// Also demonstrates the configuration flow of §3.5: the org list and each
// chaincode's policy regenerate the evaluator circuits. bmac_sim reads the
// same description, for one chaincode, from a scenario's "bmac" section
// (configs/bmac_*.json).
//
//   $ ./policy_circuits
#include <cstdio>
#include <map>
#include <string>

#include "bmac/policy_circuit.hpp"
#include "fabric/identity.hpp"

int main() {
  using namespace bm;

  // §3.5: the network's orgs and the chaincode policies.
  fabric::Msp msp;
  for (const char* org : {"Org1", "Org2", "Org3", "Org4"}) msp.add_org(org);
  std::map<std::string, fabric::EndorsementPolicy> policies;
  policies.emplace("smallbank", fabric::parse_policy_or_throw(
                                    "2-outof-3 orgs", msp.org_names()));
  policies.emplace(
      "drm", fabric::parse_policy_or_throw(
                 "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | "
                 "(Org2 & Org4) | (Org3 & Org4)",
                 msp.org_names()));

  std::printf("== ends_policy_evaluator generation ==\n");
  for (const auto& [chaincode, policy] : policies) {
    const auto circuit = bmac::PolicyCircuit::compile(policy, msp);
    const auto stats = circuit.stats();
    std::printf("\nchaincode '%s': policy \"%s\"\n", chaincode.c_str(),
                policy.text().c_str());
    std::printf("  compiled circuit: %zu inputs, %zu AND, %zu OR, %zu "
                "threshold gates (%zu gate inputs total)\n",
                stats.inputs, stats.and_gates, stats.or_gates,
                stats.threshold_gates, stats.total_gate_inputs);
    std::printf("  minimum endorsements to satisfy: %d (of %zu attached)\n",
                policy.min_endorsements_to_satisfy(),
                policy.principals().size());

    // Truth-table corner: evaluate the circuit for a few endorsement sets.
    struct Scenario {
      const char* label;
      std::vector<int> orgs;
    };
    const Scenario scenarios[] = {
        {"Org1+Org2 valid", {1, 2}},
        {"Org1+Org3 valid", {1, 3}},
        {"only Org1 valid", {1}},
        {"all four valid", {1, 2, 3, 4}},
    };
    for (const auto& scenario : scenarios) {
      bmac::RegisterFile regs(16);
      for (const int org : scenario.orgs)
        regs.set(fabric::EncodedId::make(static_cast<std::uint8_t>(org),
                                         fabric::Role::kPeer, 0),
                 true);
      std::printf("    %-18s -> %s\n", scenario.label,
                  circuit.evaluate(regs) ? "SATISFIED" : "not satisfied");
    }
  }

  // Short-circuit evaluation: with a 2-outof-3 policy and 2 engines, the
  // ends_scheduler verifies endorsements in rounds of 2 and stops as soon
  // as the circuit reports satisfied.
  std::printf("\n== short-circuit evaluation (2 engines, 2-outof-3) ==\n");
  const auto circuit =
      bmac::PolicyCircuit::compile(policies.at("smallbank"), msp);
  bmac::RegisterFile regs(16);
  int executed = 0;
  const int endorsement_orgs[] = {1, 2, 3};
  for (int round = 0; round * 2 < 3; ++round) {
    for (int i = round * 2; i < std::min(3, round * 2 + 2); ++i) {
      regs.set(fabric::EncodedId::make(
                   static_cast<std::uint8_t>(endorsement_orgs[i]),
                   fabric::Role::kPeer, 0),
               true);
      ++executed;
    }
    std::printf("  after round %d (%d verifications): circuit = %s\n",
                round + 1, executed,
                circuit.evaluate(regs) ? "SATISFIED -> drop the rest"
                                       : "not yet satisfied");
    if (circuit.evaluate(regs)) break;
  }
  std::printf("  engines used: %d of 3 endorsements (Fabric software always "
              "verifies all 3 — the Fig. 7e gap)\n", executed);
  return 0;
}
