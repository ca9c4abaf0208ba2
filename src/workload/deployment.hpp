// The BMac deployment (§3.5): the paper generates the hardware from one
// description of the Fabric network, its chaincode's endorsement policy and
// the architecture. Here that description is the "bmac" section of a
// composed scenario (serve/scenario.hpp; configs/bmac_*.json ship two):
//
//   "bmac": {
//     "orgs": 4,
//     "chaincode": "drm",
//     "policy": "(Org1 & Org2) | (Org3 & Org4)",
//     "hardware": {"tx_validators": 8, "engines_per_vscc": 2,
//                  "max_block_txs": 256, "db_capacity": 8192}
//   }
//
// The orgs are named Org1..OrgN, as every harness names them, and the
// policy must parse against those names. Every member is optional: the
// defaults (NetworkOptions{}, HwConfig{}) are the paper's two-org smallbank
// setup of Fig. 5.
#pragma once

#include "bmac/block_processor.hpp"
#include "workload/network_harness.hpp"

namespace bm::config {
class Section;
struct Range;
}

namespace bm::workload {

struct Deployment {
  /// orgs, chaincode and policy_text come from the section; the other
  /// members keep their defaults for the command to set.
  NetworkOptions network;
  bmac::HwConfig hw;
};

namespace detail {
/// Parse a "bmac" scenario section onto the defaults above. Shares the
/// config facility's diagnostics ("scenario.bmac.orgs: expected an integer
/// in [1, 255]"); errors land in the section's sink, checked by the caller.
Deployment parse_bmac_section(const config::Section& root);

/// The range of every section's "orgs": [1, 255], since an encoded id
/// carries the org index in 8 bits.
config::Range org_count();

/// Fail `s`'s "policy" key unless `text` parses against Org1..Org<orgs> and
/// names no other org ("scenario.cluster.policy: names Org3, outside
/// Org1..Org2"). The "bmac", "serve.network" and "cluster" sections share it.
void check_policy(const config::Section& s, const std::string& text, int orgs);
}  // namespace detail

}  // namespace bm::workload
