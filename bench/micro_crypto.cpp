// Microbenchmarks for the crypto substrate (google-benchmark).
//
// These measure the host CPU's software implementations — the operations
// the paper offloads, whose cost on one core is the §4.3 observation that
// motivates parallel ecdsa_engines (145 us each in hardware).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/der.hpp"
#include "crypto/ecdsa.hpp"

namespace {

using namespace bm;
using namespace bm::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data = Rng(1).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EcdsaSign(benchmark::State& state) {
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const Digest digest = sha256(to_bytes("message"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sign(key, digest));
  }
}
BENCHMARK(BM_EcdsaSign);

// One repeated key, like a hot endorser: after its first sight and the
// table build (both outside the loop) every verify runs over its comb table.
void BM_EcdsaVerify(benchmark::State& state) {
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const PublicKey pub = key.public_key();
  const Digest digest = sha256(to_bytes("message"));
  const Signature sig = sign(key, digest);
  for (int warm = 0; warm < 2; ++warm)
    benchmark::DoNotOptimize(verify(pub, digest, sig));
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(pub, digest, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

// Keys never seen before: every verify is a first sight, so this measures
// the generic joint-wNAF path plus the seen-once bookkeeping. Keys and
// signatures are made in batches outside the timed region.
void BM_EcdsaVerifyFreshKey(benchmark::State& state) {
  struct Case {
    PublicKey key;
    Signature sig;
  };
  static std::uint64_t next_seed = 0;  // no key repeats across runs
  const Digest digest = sha256(to_bytes("message"));
  std::vector<Case> batch;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == batch.size()) {
      state.PauseTiming();
      batch.clear();
      for (int i = 0; i < 256; ++i) {
        const PrivateKey key =
            key_from_seed(to_bytes("fresh-" + std::to_string(next_seed++)));
        batch.push_back({key.public_key(), sign(key, digest)});
      }
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(verify(batch[next].key, digest, batch[next].sig));
    ++next;
  }
}
BENCHMARK(BM_EcdsaVerifyFreshKey);

// Uniformly random traffic over N keys, against the cache's 64 tables and
// 64-key seen-once set. At 48 keys every key keeps its table; past 64,
// tables keep being built and evicted, and a build costs several generic
// verifies. The loop before timing lets both LRUs reach steady state.
void BM_EcdsaVerifyHotKeys(benchmark::State& state) {
  struct Case {
    PublicKey key;
    Signature sig;
  };
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const Digest digest = sha256(to_bytes("message"));
  std::vector<Case> keys;
  for (std::uint64_t i = 0; i < n; ++i) {
    const PrivateKey key = key_from_seed(
        to_bytes("hot-" + std::to_string(n) + "-" + std::to_string(i)));
    keys.push_back({key.public_key(), sign(key, digest)});
  }
  Rng rng(n);
  for (std::uint64_t i = 0; i < 10 * n; ++i) {
    const Case& c = keys[rng.uniform(n)];
    benchmark::DoNotOptimize(verify(c.key, digest, c.sig));
  }
  for (auto _ : state) {
    const Case& c = keys[rng.uniform(n)];
    benchmark::DoNotOptimize(verify(c.key, digest, c.sig));
  }
}
BENCHMARK(BM_EcdsaVerifyHotKeys)
    ->Arg(48)
    ->Arg(64)
    ->Arg(72)
    ->Arg(80)
    ->Arg(88)
    ->Arg(96)
    ->Arg(180);

/// The lockstep walk's kernel, as a row label for the batch benchmarks.
const char* lockstep_kernel() {
  return detail::comb_ifma_kernel() ? "lockstep: avx512ifma"
                                    : "lockstep: portable";
}

// One crypto::verify call over N signatures by 8 hot keys (tables built
// outside the loop), timed per signature: /1 is the single call, and from
// verify_batch_min() items on the batch walks its combs in lockstep, on the
// kernel the row's label names.
void BM_EcdsaVerifyBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<VerifyItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    const PrivateKey key =
        key_from_seed(to_bytes("batch-" + std::to_string(i % 8)));
    const Digest digest = sha256(to_bytes("message-" + std::to_string(i)));
    items.push_back({key.public_key(), digest, sign(key, digest)});
  }
  for (int warm = 0; warm < 2; ++warm)
    benchmark::DoNotOptimize(verify(items));
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(items));
  }
  state.SetLabel(lockstep_kernel());
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["us_per_sig"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_EcdsaVerifyBatch)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(50)
    ->Arg(100);

// One crypto::sign call over N digests by 8 keys, timed per signature;
// from kSignBatchMin items on the kernel the row's label names.
void BM_EcdsaSignBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<SignItem> items;
  for (std::size_t i = 0; i < n; ++i)
    items.push_back(
        {key_from_seed(to_bytes("batch-" + std::to_string(i % 8))),
         sha256(to_bytes("message-" + std::to_string(i)))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sign(items));
  }
  state.SetLabel(lockstep_kernel());
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["us_per_sig"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_EcdsaSignBatch)->Arg(1)->Arg(8)->Arg(16)->Arg(38)->Arg(76);

void BM_DerRoundTrip(benchmark::State& state) {
  const PrivateKey key = key_from_seed(to_bytes("bench"));
  const Signature sig = sign(key, sha256(to_bytes("m")));
  for (auto _ : state) {
    const Bytes der = der_encode_signature(sig);
    benchmark::DoNotOptimize(der_decode_signature(der));
  }
}
BENCHMARK(BM_DerRoundTrip);

// Field and scalar-field operations in the forms the point arithmetic and
// ECDSA use: Montgomery-domain products mod p, the safegcd inverses, and
// products mod n. BM_FieldMul and BM_FieldSqr time one dependent chain
// through an out-of-line call, so they read as latency; the Throughput
// variants run four independent chains, as the point formulas allow, and
// time four products per iteration.
void BM_FieldMul(benchmark::State& state) {
  Rng rng(2);
  U256 a = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  const U256 b = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  for (auto _ : state) {
    a = fp_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSqr(benchmark::State& state) {
  Rng rng(2);
  U256 a = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  for (auto _ : state) {
    a = fp_sqr(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldSqr);

void BM_FieldMulThroughput(benchmark::State& state) {
  Rng rng(2);
  U256 a[4];
  for (U256& x : a)
    x = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  const U256 b = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  for (auto _ : state) {
    a[0] = fp_mul(a[0], b);
    a[1] = fp_mul(a[1], b);
    a[2] = fp_mul(a[2], b);
    a[3] = fp_mul(a[3], b);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FieldMulThroughput);

void BM_FieldSqrThroughput(benchmark::State& state) {
  Rng rng(2);
  U256 a[4];
  for (U256& x : a)
    x = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  for (auto _ : state) {
    a[0] = fp_sqr(a[0]);
    a[1] = fp_sqr(a[1]);
    a[2] = fp_sqr(a[2]);
    a[3] = fp_sqr(a[3]);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FieldSqrThroughput);

// The lockstep walk's eight-lane Montgomery product (one dependent chain
// of eight lanes through the out-of-line detail::fp8_apply), timed per
// lane product; only where the walk runs the IFMA kernel.
void BM_FieldMul8Throughput(benchmark::State& state) {
  if (!detail::comb_ifma_kernel()) {
    state.SkipWithError("no avx512ifma: the lockstep walk runs the portable "
                        "kernel");
    return;
  }
  Rng rng(2);
  detail::Fp8 a{}, b{};
  for (int k = 0; k < 8; ++k) {
    detail::fp8_set(a, k, mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
    detail::fp8_set(b, k, mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  }
  for (auto _ : state) {
    a = detail::fp8_apply(detail::Fp8Op::kMul, a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(lockstep_kernel());
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_FieldMul8Throughput);

void BM_FieldInv(benchmark::State& state) {
  Rng rng(3);
  U256 a = fp_to_mont(mod(U256::from_bytes_be(rng.bytes(32)), p256_p()));
  for (auto _ : state) {
    a = fp_inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInv);

void BM_ScalarMul(benchmark::State& state) {
  Rng rng(4);
  U256 a = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  const U256 b = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  for (auto _ : state) {
    a = fn_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarMul);

void BM_ScalarInv(benchmark::State& state) {
  Rng rng(4);
  U256 a = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  for (auto _ : state) {
    a = fn_inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarInv);

void BM_ScalarMultNaive(benchmark::State& state) {
  const AffinePoint q = key_from_seed(to_bytes("sm")).public_key().point;
  const U256 k = mod(U256::from_bytes_be(Rng(5).bytes(32)), p256_n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar_mult_naive(k, q));
  }
}
BENCHMARK(BM_ScalarMultNaive);

void BM_ScalarMultWnaf(benchmark::State& state) {
  const AffinePoint q = key_from_seed(to_bytes("sm")).public_key().point;
  const U256 k = mod(U256::from_bytes_be(Rng(5).bytes(32)), p256_n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar_mult_wnaf(k, q));
  }
}
BENCHMARK(BM_ScalarMultWnaf);

void BM_BaseMultComb(benchmark::State& state) {
  const U256 k = mod(U256::from_bytes_be(Rng(6).bytes(32)), p256_n());
  benchmark::DoNotOptimize(base_mult(k));  // warm the table outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(base_mult(k));
  }
}
BENCHMARK(BM_BaseMultComb);

// The one-time cost a key pays on its second sight in crypto::verify.
void BM_CombTableBuild(benchmark::State& state) {
  const AffinePoint q = key_from_seed(to_bytes("build")).public_key().point;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PointCombTable::build(q));
  }
}
BENCHMARK(BM_CombTableBuild);

void BM_DoubleScalarMult(benchmark::State& state) {
  const AffinePoint q = key_from_seed(to_bytes("dsm")).public_key().point;
  Rng rng(7);
  const U256 u1 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  const U256 u2 = mod(U256::from_bytes_be(rng.bytes(32)), p256_n());
  benchmark::DoNotOptimize(double_scalar_mult(u1, u2, q));
  for (auto _ : state) {
    benchmark::DoNotOptimize(double_scalar_mult(u1, u2, q));
  }
}
BENCHMARK(BM_DoubleScalarMult);

}  // namespace

BENCHMARK_MAIN();
