// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// hashing, Merkle construction, TLV packet codecs, bitmap operations,
// RPF ranking, and the event scheduler. These bound the simulator's
// throughput and the per-packet CPU cost a real deployment would pay.
#include <benchmark/benchmark.h>

#include "crypto/merkle.hpp"
#include "dapes/collection.hpp"
#include "crypto/sha256.hpp"
#include "dapes/bitmap.hpp"
#include "dapes/rpf.hpp"
#include "ndn/packet.hpp"
#include "sim/scheduler.hpp"

using namespace dapes;

static void BM_Sha256_1KB(benchmark::State& state) {
  common::Bytes data(1024, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Sha256::hash(common::BytesView(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

static void BM_MerkleBuild(benchmark::State& state) {
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(crypto::Sha256::hash("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::compute_root(leaves));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(128)->Arg(1024)->Arg(10240);

static void BM_InterestEncodeDecode(benchmark::State& state) {
  ndn::Interest interest(ndn::Name("/collection-1533783192/file-3/177"));
  for (auto _ : state) {
    interest.set_nonce(0x1234abcd);  // invalidate the wire cache
    common::BufferSlice wire = interest.wire();
    benchmark::DoNotOptimize(ndn::Interest::decode(wire));
  }
}
BENCHMARK(BM_InterestEncodeDecode);

static void BM_DataEncodeDecode_1KB(benchmark::State& state) {
  ndn::Data data(ndn::Name("/collection-1533783192/file-3/177"));
  common::Duration freshness = data.freshness();
  data.set_content(common::Bytes(1024, 0x77));
  for (auto _ : state) {
    data.set_freshness(freshness);  // invalidate the wire cache
    common::BufferSlice wire = data.wire();
    benchmark::DoNotOptimize(ndn::Data::decode(wire));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_DataEncodeDecode_1KB);

static void BM_DataForwardZeroCopy_1KB(benchmark::State& state) {
  // The forward path: decode an incoming frame, re-send the cached wire.
  ndn::Data data(ndn::Name("/collection-1533783192/file-3/177"));
  data.set_content(common::Bytes(1024, 0x77));
  common::BufferSlice frame = data.wire();
  for (auto _ : state) {
    auto decoded = ndn::Data::decode(frame);
    benchmark::DoNotOptimize(decoded->wire());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_DataForwardZeroCopy_1KB);

static void BM_BitmapEncodeDecode(benchmark::State& state) {
  core::Bitmap bm(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < bm.size(); i += 3) bm.set(i);
  for (auto _ : state) {
    common::Bytes wire = bm.encode();
    benchmark::DoNotOptimize(
        core::Bitmap::decode(common::BytesView(wire.data(), wire.size())));
  }
}
BENCHMARK(BM_BitmapEncodeDecode)->Arg(1280)->Arg(10240);

static void BM_BitmapRarityCount(benchmark::State& state) {
  core::Bitmap a(10240), b(10240);
  for (size_t i = 0; i < a.size(); i += 2) a.set(i);
  for (size_t i = 0; i < b.size(); i += 3) b.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count_set_and_missing_from(b));
  }
}
BENCHMARK(BM_BitmapRarityCount);

static void BM_RpfRank(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  common::Rng rng(5);
  std::vector<uint32_t> counts(n);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    counts[i] = static_cast<uint32_t>(rng.next_below(8));
    order[i] = i;
  }
  rng.shuffle(order);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_packets(counts, order));
  }
}
BENCHMARK(BM_RpfRank)->Arg(1280)->Arg(10240);

static void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule(common::Duration::microseconds(i % 97), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SchedulerChurn);

static void BM_SyntheticPayload_1KB(benchmark::State& state) {
  ndn::Name name("/coll/file/42");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Collection::synthetic_payload(name, 1024));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_SyntheticPayload_1KB);

BENCHMARK_MAIN();
