// Microbenchmarks for the BMac protocol hot paths: sender-side block
// sectioning (DataRemover + AnnotationGenerator) and the receiver-side
// reconstruction + extraction, one block through a whole BMac peer, plus
// policy-circuit compilation/evaluation.
#include <benchmark/benchmark.h>

#include "bmac/peer.hpp"
#include "bmac/policy_circuit.hpp"
#include "bmac/protocol.hpp"
#include "workload/network_harness.hpp"

namespace {

using namespace bm;

struct ProtocolFixture {
  explicit ProtocolFixture(bool faults = false)
      : harness(make_options(faults)), sender(harness.msp()) {
    block = harness.next_block();
    warm = sender.send(block);  // identities cached after this
  }
  static workload::NetworkOptions make_options(bool faults) {
    workload::NetworkOptions options;
    options.block_size = 50;
    if (faults) {  // the `bmac_sim validate --faults` mix
      options.bad_signature_rate = 0.1;
      options.missing_endorsement_rate = 0.1;
      options.conflicting_read_rate = 0.15;
    }
    return options;
  }
  workload::FabricNetworkHarness harness;
  bmac::ProtocolSender sender;
  fabric::Block block;
  bmac::SendResult warm;
};

void BM_ProtocolSend(benchmark::State& state) {
  static ProtocolFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.sender.send(fixture.block));
  }
  state.SetItemsProcessed(state.iterations() * 50);  // transactions
}
BENCHMARK(BM_ProtocolSend);

void BM_ProtocolReceive(benchmark::State& state) {
  static ProtocolFixture fixture;
  bmac::HwIdentityCache cache;
  // Load identities from the warm-up sync packets.
  for (const auto& pkt : fixture.warm.packets)
    if (pkt.header.section == bmac::SectionType::kIdentitySync)
      cache.insert(pkt.annotations[0].id, pkt.payload);
  const bmac::SendResult steady = fixture.sender.send(fixture.block);
  for (auto _ : state) {
    bmac::ProtocolReceiver receiver(cache);
    for (const auto& pkt : steady.packets)
      benchmark::DoNotOptimize(receiver.on_packet(pkt));
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_ProtocolReceive);

void BM_BmacPeerBlock(benchmark::State& state) {
  // One faulty 50-tx block through a fresh peer, as perfbench's `commit`
  // pass runs each block: send, packet and host delivery, the DES drain.
  static ProtocolFixture fixture(/*faults=*/true);
  for (auto _ : state) {
    sim::Simulation sim;
    bmac::BmacPeer peer(sim, fixture.harness.msp(), bmac::HwConfig{},
                        fixture.harness.policies());
    peer.start();
    bmac::ProtocolSender sender(fixture.harness.msp());
    for (bmac::BmacPacket& packet : sender.send(fixture.block).packets)
      peer.deliver_packet(std::move(packet));
    peer.deliver_block(fixture.block);
    sim.run();
    benchmark::DoNotOptimize(peer.results().data());
  }
  state.SetItemsProcessed(state.iterations() * 50);  // transactions
}
BENCHMARK(BM_BmacPeerBlock);

void BM_PacketEncodeDecode(benchmark::State& state) {
  static ProtocolFixture fixture;
  const bmac::SendResult steady = fixture.sender.send(fixture.block);
  const bmac::BmacPacket& pkt = steady.packets[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(bmac::BmacPacket::decode(pkt.encode()));
  }
}
BENCHMARK(BM_PacketEncodeDecode);

void BM_PolicyCompile(benchmark::State& state) {
  fabric::Msp msp;
  std::vector<std::string> orgs;
  for (int i = 1; i <= 4; ++i) {
    orgs.push_back("Org" + std::to_string(i));
    msp.add_org(orgs.back());
  }
  const auto policy = fabric::parse_policy_or_throw(
      "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | "
      "(Org3 & Org4)",
      orgs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bmac::PolicyCircuit::compile(policy, msp));
  }
}
BENCHMARK(BM_PolicyCompile);

void BM_PolicyCircuitEval(benchmark::State& state) {
  fabric::Msp msp;
  std::vector<std::string> orgs;
  for (int i = 1; i <= 4; ++i) {
    orgs.push_back("Org" + std::to_string(i));
    msp.add_org(orgs.back());
  }
  const auto circuit = bmac::PolicyCircuit::compile(
      fabric::parse_policy_or_throw("2-outof-4 orgs", orgs), msp);
  bmac::RegisterFile regs(16);
  regs.set(fabric::EncodedId::make(1, fabric::Role::kPeer, 0), true);
  regs.set(fabric::EncodedId::make(3, fabric::Role::kPeer, 0), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.evaluate(regs));
  }
}
BENCHMARK(BM_PolicyCircuitEval);

}  // namespace

BENCHMARK_MAIN();
