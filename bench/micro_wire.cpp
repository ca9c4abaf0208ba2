// Microbenchmarks for the wire-format and transaction marshaling paths —
// the "unmarshaling of many protobufs" bottleneck (§2.3, observation 1) —
// and the block log's byte work: the record CRC and the block marshal.
#include <benchmark/benchmark.h>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "fabric/block.hpp"
#include "fabric/transaction.hpp"
#include "wire/varint.hpp"

namespace {

using namespace bm;

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) v = rng.next_u64() >> rng.uniform(64);
  Bytes out;
  for (auto _ : state) {
    out.clear();
    for (const auto v : values) wire::put_varint(out, v);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  Rng rng(1);
  Bytes encoded;
  for (int i = 0; i < 1024; ++i)
    wire::put_varint(encoded, rng.next_u64() >> rng.uniform(64));
  for (auto _ : state) {
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    while (pos < encoded.size()) sum += *wire::get_varint(encoded, pos);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VarintDecode);

struct TxFixture {
  TxFixture() {
    auto& org1 = msp.add_org("Org1");
    auto& org2 = msp.add_org("Org2");
    client = org1.issue(fabric::Role::kClient, 0, "c0");
    peer1 = org1.issue(fabric::Role::kPeer, 0, "p1");
    peer2 = org2.issue(fabric::Role::kPeer, 0, "p2");
    fabric::TxProposal proposal;
    proposal.channel_id = "ch";
    proposal.chaincode_id = "smallbank";
    proposal.tx_id = "bench";
    proposal.rwset.reads.push_back({"checking_1", fabric::Version{1, 0}});
    proposal.rwset.writes.push_back({"checking_1", to_bytes("100")});
    envelope = fabric::build_envelope(proposal, client, {&peer1, &peer2});
  }
  fabric::Msp msp;
  fabric::Identity client, peer1, peer2;
  Bytes envelope;
};

void BM_EnvelopeParse(benchmark::State& state) {
  static TxFixture fixture;  // endorsing once; parse is the hot path
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric::parse_envelope(fixture.envelope));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.envelope.size()));
}
BENCHMARK(BM_EnvelopeParse);

void BM_CertificateUnmarshal(benchmark::State& state) {
  static TxFixture fixture;
  const Bytes cert = fixture.peer1.cert.marshal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric::Certificate::unmarshal(cert));
  }
}
BENCHMARK(BM_CertificateUnmarshal);

// A short frame, one 3-tx block-log record (~11 KB) and a large snapshot.
void BM_Crc32(benchmark::State& state) {
  const Bytes data = Rng(7).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(11000)->Arg(1 << 20);

/// The per-byte loop: the fallback without pclmulqdq, and the oracle.
void BM_Crc32Bytewise(benchmark::State& state) {
  const Bytes data = Rng(7).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(detail::crc32_bytewise(0, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Bytewise)->Arg(64)->Arg(11000)->Arg(1 << 20);

/// One 150-tx block (the paper's default size) marshaled for the log.
void BM_BlockMarshal(benchmark::State& state) {
  static TxFixture fixture;
  Rng rng(9);
  fabric::Block block;
  block.header.number = 42;
  block.header.prev_hash = rng.bytes(32);
  block.header.data_hash = rng.bytes(32);
  block.envelopes.assign(150, fixture.envelope);
  block.metadata.orderer_cert = fixture.peer1.cert.marshal();
  block.metadata.orderer_sig = rng.bytes(71);
  block.metadata.tx_flags.assign(150, 0);
  const auto size = static_cast<std::int64_t>(block.marshaled_size());
  for (auto _ : state) benchmark::DoNotOptimize(block.marshal());
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_BlockMarshal);

}  // namespace

BENCHMARK_MAIN();
