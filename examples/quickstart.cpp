// Quickstart: stand up a two-org Fabric network, push one block of real
// endorsed transactions through BOTH validator implementations — the
// software-only peer and the BMac hardware-accelerated peer — and check
// they agree (the paper's §4.1 consistency check).
//
//   $ ./quickstart
//
// Walks through: identities/MSP -> chaincode policy -> client endorsement ->
// ordering -> BMac protocol packets -> hardware pipeline -> ledger commit.
#include <cstdio>

#include "bmac/peer.hpp"
#include "common/hex.hpp"
#include "fabric/validator.hpp"
#include "workload/network_harness.hpp"

int main() {
  using namespace bm;

  std::printf("== Blockchain Machine quickstart ==\n\n");

  // 1. A Fabric network: two orgs, smallbank chaincode, "Org1 & Org2"
  //    endorsement policy. The harness creates CAs, peers, a client and an
  //    orderer, and executes chaincode against committed state.
  workload::NetworkOptions options;
  options.orgs = 2;
  options.policy_text = "2-outof-2 orgs";
  options.block_size = 10;
  workload::FabricNetworkHarness network(options);
  std::printf("network: %zu orgs, chaincode '%s', policy \"%s\"\n",
              network.msp().org_count(), network.chaincode_name().c_str(),
              options.policy_text.c_str());

  // 2. The software-only validator peer.
  fabric::StateDb sw_state;
  fabric::Ledger sw_ledger;
  fabric::SoftwareValidator sw_validator(network.msp(), network.policies());

  // 3. The BMac peer: an 8x2 hardware architecture in the discrete-event
  //    simulator, fed through the BMac protocol.
  sim::Simulation sim;
  bmac::HwConfig hw;  // 8 tx_validators x 2 ecdsa_engines (the paper default)
  bmac::BmacPeer bmac_peer(sim, network.msp(), hw, network.policies());
  bmac_peer.start();
  bmac::ProtocolSender protocol(network.msp());

  // 4. Create three blocks of endorsed transactions and deliver them to
  //    both peers.
  for (int i = 0; i < 3; ++i) {
    fabric::Block block = network.next_block();
    std::printf("\nblock %llu: %zu transactions, %zu bytes marshaled\n",
                static_cast<unsigned long long>(block.header.number),
                block.tx_count(), block.marshaled_size());

    // Software path: Gossip delivers the marshaled block; validate+commit.
    const auto sw_result =
        sw_validator.validate_and_commit(block, sw_state, sw_ledger);
    std::printf("  sw_validator : block %s, %u/%zu txs valid\n",
                sw_result.block_valid ? "valid" : "INVALID",
                sw_result.valid_tx_count, block.tx_count());

    // BMac path: the orderer calls Send() right before Gossip (§3.5) —
    // sections, identity removal, annotations, UDP packets.
    const bmac::SendResult send = protocol.send(block);
    std::printf("  bmac protocol: %zu packets, %zu B (gossip: %zu B, %.1fx "
                "smaller)\n",
                send.packets.size(), send.bmac_size, send.gossip_size,
                static_cast<double>(send.gossip_size) / send.bmac_size);
    for (const auto& packet : send.packets) bmac_peer.deliver_packet(packet);
    bmac_peer.deliver_block(block);
    sim.run();  // hardware validates; host merges flags and commits

    const auto& hw_result = bmac_peer.results().back();
    std::printf("  bmac peer    : block %s, validated in %.0f us of "
                "simulated time (%u signatures checked, %u skipped)\n",
                hw_result.block_valid ? "valid" : "INVALID",
                static_cast<double>(hw_result.stats.validate_end -
                                    hw_result.stats.validate_start) /
                    sim::kMicrosecond,
                hw_result.stats.ecdsa_executed, hw_result.stats.ecdsa_skipped);
  }

  // 5. The consistency check: flags and commit hashes must be identical
  //    (each commit hash covers the block with its flags).
  const bool match =
      sw_ledger.height() == bmac_peer.ledger().height() &&
      fabric::chain_divergence(bmac_peer.ledger(), sw_ledger).empty();
  std::printf("\ncommit hash (sw)  : %s\n",
              hex_encode(crypto::digest_view(sw_ledger.last().commit_hash))
                  .c_str());
  std::printf("commit hash (bmac): %s\n",
              hex_encode(crypto::digest_view(
                             bmac_peer.ledger().last().commit_hash))
                  .c_str());
  std::printf("consistency check : %s\n", match ? "PASS" : "FAIL");
  return match ? 0 : 1;
}
