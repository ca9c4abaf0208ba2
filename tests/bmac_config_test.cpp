// The BMac deployment (§3.5): the "bmac" section of a composed scenario
// (workload/deployment.hpp), its diagnostics, and the shipped
// configs/bmac_*.json files driving a real harness.
#include <gtest/gtest.h>

#include "fabric/transaction.hpp"
#include "serve/scenario.hpp"
#include "workload/deployment.hpp"

namespace bm::workload {
namespace {

constexpr const char* kSample = R"({
  "_doc": "a three-org smallbank deployment",
  "bmac": {
    "orgs": 3,
    "chaincode": "smallbank",
    "policy": "2-outof-2 orgs",
    "hardware": {
      "tx_validators": 4,
      "engines_per_vscc": 3,
      "max_block_txs": 128,
      "db_capacity": 4096
    }
  }
})";

Deployment parse(const std::string& text) {
  std::string error;
  const auto scenario = serve::parse_scenario(text, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  EXPECT_TRUE(scenario && scenario->bmac.has_value());
  return scenario && scenario->bmac ? *scenario->bmac : Deployment{};
}

TEST(BmacConfig, ParsesFullDocument) {
  const Deployment deployment = parse(kSample);
  EXPECT_EQ(deployment.network.orgs, 3);
  EXPECT_EQ(deployment.network.chaincode, ChaincodeKind::kSmallbank);
  EXPECT_EQ(deployment.network.policy_text, "2-outof-2 orgs");
  EXPECT_EQ(deployment.hw.tx_validators, 4);
  EXPECT_EQ(deployment.hw.engines_per_vscc, 3);
  EXPECT_EQ(deployment.hw.max_block_txs, 128u);
  EXPECT_EQ(deployment.hw.db_capacity, 4096u);
}

TEST(BmacConfig, PopulatesMspInOrder) {
  const FabricNetworkHarness harness(parse(kSample).network);
  EXPECT_EQ(harness.msp().org_count(), 3u);
  EXPECT_EQ(harness.msp().find_org("Org2")->org_index(), 2);
}

TEST(BmacConfig, ParsesPolicies) {
  const FabricNetworkHarness harness(parse(kSample).network);
  ASSERT_EQ(harness.policies().size(), 1u);
  EXPECT_EQ(harness.policies().at("smallbank").min_endorsements_to_satisfy(),
            2);
}

TEST(BmacConfig, DefaultsWhenHardwareOmitted) {
  // Every member is optional; an empty section is the Fig. 5 deployment.
  const Deployment deployment = parse(R"({"bmac": {"orgs": 1,
                                                    "policy": "Org1"}})");
  EXPECT_EQ(deployment.hw.tx_validators, bmac::HwConfig{}.tx_validators);
  EXPECT_EQ(deployment.hw.db_capacity, bmac::HwConfig{}.db_capacity);
  const Deployment empty = parse(R"({"bmac": {}})");
  EXPECT_EQ(empty.network.orgs, NetworkOptions{}.orgs);
  EXPECT_EQ(empty.network.policy_text, NetworkOptions{}.policy_text);
  EXPECT_EQ(empty.network.chaincode, NetworkOptions{}.chaincode);
}

TEST(BmacConfig, Errors) {
  struct Case {
    const char* json;
    const char* diagnostic;
  };
  const Case cases[] = {
      {R"({"bmac": {"hardware": {"db_capcity": 10}}})",
       "scenario.bmac.hardware.db_capcity: unknown key"},
      {R"({"bmac": {"network": {"orgs": 2}}})",
       "scenario.bmac.network: unknown key"},
      {R"({"bmac": {"chaincode": "marbles"}})",
       "scenario.bmac.chaincode: unknown value \"marbles\" (smallbank | drm)"},
      {R"({"bmac": {"hardware": {"tx_validators": "lots"}}})",
       "scenario.bmac.hardware.tx_validators: expected an integer in "
       "[1, 2147483647]"},
      {R"({"bmac": {"hardware": {"engines_per_vscc": 2.5}}})",
       "scenario.bmac.hardware.engines_per_vscc: expected an integer in "
       "[1, 2147483647]"},
      {R"({"bmac": {"orgs": 0}})",
       "scenario.bmac.orgs: expected an integer in [1, 255]"},
      {R"({"bmac": {"orgs": 2, "policy": "3-outof-3 orgs"}})",
       "scenario.bmac.policy: does not parse against Org1..Org2: policy "
       "needs more orgs than the network has at offset 11"},
      {R"({"bmac": {"orgs": 2, "policy": "Org1 & Org3"}})",
       "scenario.bmac.policy: names Org3, outside Org1..Org2"},
      {R"({"bmac": {"hardware": []}})",
       "scenario.bmac.hardware: expected an object"},
      {R"({"bmac": 3})", "scenario.bmac: expected an object"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(serve::parse_scenario(c.json, &error).has_value()) << c.json;
    EXPECT_EQ(error, c.diagnostic) << c.json;
  }
}

TEST(BmacConfig, LoadFileFailsOnMissing) {
  std::string error;
  EXPECT_FALSE(serve::load_scenario("/nonexistent/path.json", &error));
  EXPECT_EQ(error, "/nonexistent/path.json: cannot open file");
}

TEST(BmacConfig, ShippedDrmDeploymentRunsDrmUnderTheComplexPolicy) {
  std::string error;
  const auto scenario = serve::load_scenario(
      std::string(BM_REPO_ROOT) + "/configs/bmac_drm_4org_complex.json",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  ASSERT_TRUE(scenario->bmac.has_value());
  NetworkOptions options = scenario->bmac->network;
  options.block_size = 8;
  FabricNetworkHarness harness(options);

  EXPECT_EQ(harness.chaincode_name(), "drm");
  EXPECT_EQ(harness.msp().org_count(), 4u);
  ASSERT_EQ(harness.policies().count("drm"), 1u);
  const fabric::EndorsementPolicy& policy = harness.policies().at("drm");
  EXPECT_EQ(policy.text(),
            "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) "
            "| (Org3 & Org4)");
  EXPECT_EQ(policy.principals().size(), 4u);  // distinct orgs

  const fabric::Block block = harness.next_block();
  ASSERT_EQ(block.tx_count(), 8u);
  for (const Bytes& envelope : block.envelopes) {
    const auto tx = fabric::parse_envelope(envelope);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ(tx->chaincode_id, "drm");
    // One endorsement per policy principal, every one of the four orgs.
    EXPECT_EQ(tx->endorsements.size(), 4u);
  }
  EXPECT_EQ(harness.reference_result(block.header.number).valid_tx_count, 8u);
}

}  // namespace
}  // namespace bm::workload
