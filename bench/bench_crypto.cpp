// Crypto hot-path benchmark: SHA-256 engines and the verify-result cache.
//
// Two workloads share one (message-size x engine) grid:
//
//   * Hash throughput: one-shot Sha256::hash — the message-size x engine
//     sweep that shows what SHA-NI buys over the scalar reference.
//   * The 500-node verify-bound workload: one sender broadcasts signed
//     Data frames over a real Medium to 500 in-range receivers, every
//     receiver verifying every frame. Run twice per cell — with the
//     delivery prewarm + verify cache (the default stack) and with the
//     cache off (per-receiver scalar-path verifies). The "scalar" series'
//     uncached row is the committed scalar baseline the acceptance
//     criterion compares against (EXPERIMENTS.md "Crypto engines").
//
//   bench_crypto [--trials N] [--quick] [--seed S] [--jobs N] [--no-wall]
//                [--format text|csv|json] [--out FILE]
//
// With --no-wall the throughput metrics are replaced by deterministic
// ones — a digest checksum per cell (equal across engines, re-proving
// equivalence) and the verify workload's counter readings — so the output
// is byte-identical for any --jobs value. Engine selection is process
// global, so cells serialize on a mutex: --jobs affects scheduling only,
// never results, and wall timings are never taken concurrently.
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "crypto/keychain.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_cache.hpp"
#include "harness/sweep.hpp"
#include "harness/trial_runner.hpp"
#include "ndn/face.hpp"
#include "ndn/packet.hpp"
#include "ndn/verify_prewarm.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::bench {
namespace {

using common::Bytes;
using common::BytesView;

constexpr size_t kVerifyNodes = 500;  // receivers in the verify workload
constexpr int kVerifyFrames = 4;      // broadcasts per timed repetition

Bytes random_message(common::Rng& rng, size_t len) {
  Bytes b(len);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.uniform_int(0, 255));
  return b;
}

/// Time `op()` for ~15 ms (after one warm-up call) and return ops/second.
template <typename Op>
double ops_per_second(Op&& op) {
  using clock = std::chrono::steady_clock;
  op();
  constexpr auto kBudget = std::chrono::milliseconds(15);
  size_t ops = 0;
  auto start = clock::now();
  auto deadline = start + kBudget;
  while (clock::now() < deadline) {
    op();
    ++ops;
  }
  double seconds = std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(ops) / seconds;
}

// --- hash throughput ------------------------------------------------------

/// Wire MB/s of one-shot Sha256::hash over a `msg_bytes` message. The
/// active engine must already be selected.
double hash_mbps(size_t msg_bytes, uint64_t seed) {
  common::Rng rng(seed);
  const Bytes message = random_message(rng, msg_bytes);
  const BytesView view(message.data(), message.size());
  crypto::Digest out;
  const double ops = ops_per_second([&] { out = crypto::Sha256::hash(view); });
  return ops * static_cast<double>(msg_bytes) / 1e6;
}

/// Deterministic stand-in for the throughput rows under --no-wall: the
/// first four bytes of the XOR of 32 digests, as an exact double. Equal
/// across engines (digests are engine-independent), so the emitted grid
/// re-proves equivalence while staying byte-diffable across --jobs.
double digest_checksum(size_t msg_bytes, uint64_t seed) {
  common::Rng rng(seed);
  uint8_t acc[4] = {0, 0, 0, 0};
  for (int m = 0; m < 32; ++m) {
    const Bytes message = random_message(rng, msg_bytes);
    const crypto::Digest d =
        crypto::Sha256::hash(BytesView(message.data(), message.size()));
    for (size_t i = 0; i < d.bytes.size(); ++i) acc[i % 4] ^= d.bytes[i];
  }
  uint32_t folded = (uint32_t(acc[0]) << 24) | (uint32_t(acc[1]) << 16) |
                    (uint32_t(acc[2]) << 8) | uint32_t(acc[3]);
  return static_cast<double>(folded);
}

// --- the 500-node verify-bound workload -----------------------------------

/// One sender plus kVerifyNodes stationary receivers on a shared medium,
/// all inside radio range; every receiver decodes and verifies every
/// broadcast Data frame. The crypto stack under test (active engine,
/// cache on/off) is configured by the caller.
struct VerifyWorld {
  sim::Scheduler sched;
  common::Rng rng{42};
  crypto::KeyChain keychain;
  crypto::PrivateKey key;
  std::unique_ptr<sim::Medium> medium;
  std::unique_ptr<crypto::VerifyCache> cache;
  std::unique_ptr<ndn::DataVerifyPrewarm> prewarm;
  std::unique_ptr<crypto::VerifyCacheScope> scope;
  std::vector<std::unique_ptr<sim::StationaryMobility>> spots;
  std::vector<std::shared_ptr<sim::Radio>> radios;
  std::vector<std::shared_ptr<ndn::WifiFace>> receivers;
  std::unique_ptr<sim::Radio> sender_radio;
  std::unique_ptr<ndn::WifiFace> sender;
  size_t verified = 0;
  int frame_counter = 0;

  explicit VerifyWorld(bool use_cache) {
    key = keychain.generate_key("/bench/crypto/producer");
    sim::Medium::Params mp;
    mp.range_m = 10000.0;  // everyone hears everyone
    mp.loss_rate = 0.0;
    medium = std::make_unique<sim::Medium>(sched, mp, rng.fork());
    if (use_cache) {
      cache = std::make_unique<crypto::VerifyCache>();
      prewarm = std::make_unique<ndn::DataVerifyPrewarm>(*cache, keychain);
      medium->set_prewarm(prewarm.get());
      scope = std::make_unique<crypto::VerifyCacheScope>(cache.get());
    }

    spots.push_back(std::make_unique<sim::StationaryMobility>(sim::Vec2{0, 0}));
    sim::NodeId sender_id = medium->add_node(spots.back().get(), nullptr);
    for (size_t r = 0; r < kVerifyNodes; ++r) {
      spots.push_back(std::make_unique<sim::StationaryMobility>(
          sim::Vec2{5.0 + static_cast<double>(r % 25),
                    5.0 + static_cast<double>(r / 25)}));
      auto idx = receivers.size();
      sim::NodeId node = medium->add_node(
          spots.back().get(),
          [this, idx](const sim::FramePtr& frame, sim::NodeId) {
            receivers[idx]->on_frame(frame);
          });
      auto radio =
          std::make_shared<sim::Radio>(sched, *medium, node, rng.fork());
      auto face = std::make_shared<ndn::WifiFace>(sched, *radio, node,
                                                  rng.fork(),
                                                  common::Duration{0});
      face->set_receive_handlers(nullptr, [this](const ndn::Data& d) {
        if (d.verify(keychain)) ++verified;
      });
      radios.push_back(std::move(radio));
      receivers.push_back(std::move(face));
    }
    sender_radio =
        std::make_unique<sim::Radio>(sched, *medium, sender_id, rng.fork());
    sender = std::make_unique<ndn::WifiFace>(sched, *sender_radio, sender_id,
                                             rng.fork(), common::Duration{0});
  }

  /// Broadcast kVerifyFrames fresh signed frames and drain the scheduler:
  /// kVerifyFrames x kVerifyNodes receiver verifies per call.
  void round(size_t content_bytes) {
    for (int f = 0; f < kVerifyFrames; ++f) {
      ndn::Data data(
          ndn::Name("/bench/crypto/" + std::to_string(frame_counter++)));
      data.set_content(
          Bytes(content_bytes, static_cast<uint8_t>(frame_counter)));
      data.set_freshness(common::Duration::seconds(1e6));
      data.sign(key);
      sender->send_data(data);
      sched.run();
    }
  }
};

/// Receiver verifies per wall second, in thousands.
double verify_kops(bool use_cache, size_t content_bytes) {
  VerifyWorld world(use_cache);
  double rounds = ops_per_second([&] { world.round(content_bytes); });
  return rounds * kVerifyFrames * kVerifyNodes / 1e3;
}

/// Deterministic counter readings from one fixed verify round.
struct VerifyCounts {
  double digests = 0;   // content digests actually computed
  double mac_hits = 0;  // receiver verifies served from the cache
};

VerifyCounts verify_counts(bool use_cache, size_t content_bytes) {
  VerifyWorld world(use_cache);
  crypto::verify_counters().reset();
  world.round(content_bytes);
  VerifyCounts c;
  c.digests = static_cast<double>(
      crypto::verify_counters().content_digests_computed.load());
  c.mac_hits =
      static_cast<double>(crypto::verify_counters().mac_hits.load());
  crypto::verify_counters().reset();
  return c;
}

}  // namespace
}  // namespace dapes::bench

int main(int argc, char** argv) {
  using namespace dapes;
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  const std::vector<size_t> sizes =
      args.quick ? std::vector<size_t>{256, 1480}
                 : std::vector<size_t>{64, 256, 1480, 4096};
  std::vector<std::string> engines;
  for (const crypto::Sha256Engine* e : crypto::all_engines()) {
    engines.push_back(e->name);
  }

  const std::vector<std::string> metrics =
      args.no_wall
          ? std::vector<std::string>{"digest_check", "verify_digests",
                                     "verify_digests_nocache",
                                     "verify_mac_hits"}
          : std::vector<std::string>{"hash_mbps", "verify_kops",
                                     "verify_kops_nocache"};

  // Open the sink first: a bad --out path should fail before the grid
  // burns any time (the BenchArgs::run convention).
  std::FILE* f = stdout;
  if (!args.out.empty()) {
    f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --out file %s\n", args.out.c_str());
      return 1;
    }
  }

  harness::SweepResult result;
  result.title = "crypto: SHA-256 engines and the verify cache";
  result.x_label = "message_bytes";
  result.y_unit = args.no_wall ? "count" : "MB/s | kops/s";
  for (size_t s : sizes) result.xs.push_back(static_cast<double>(s));
  result.series_labels = engines;
  result.metric_labels = metrics;
  result.values.assign(
      metrics.size(),
      std::vector<std::vector<double>>(
          engines.size(), std::vector<double>(sizes.size(), 0.0)));

  // set_engine() and the verify counters are process-global, so the cell
  // body serializes on a mutex: --jobs changes scheduling, never output,
  // and no two wall timings ever overlap.
  std::mutex cell_mutex;
  harness::TrialRunner runner(args.jobs);
  const size_t cells = engines.size() * sizes.size();
  runner.for_each_index(cells, [&](size_t cell) {
    const size_t ei = cell / sizes.size();
    const size_t xi = cell % sizes.size();
    std::lock_guard<std::mutex> lock(cell_mutex);
    if (!crypto::set_engine(engines[ei])) return;
    // Content seeds depend on the size only, so deterministic rows are
    // equal across engines — the equivalence property, visible in the
    // emitted grid.
    const uint64_t seed = common::derive_seed(args.seed, xi);
    if (args.no_wall) {
      bench::VerifyCounts cached = bench::verify_counts(true, sizes[xi]);
      bench::VerifyCounts uncached = bench::verify_counts(false, sizes[xi]);
      result.values[0][ei][xi] = bench::digest_checksum(sizes[xi], seed);
      result.values[1][ei][xi] = cached.digests;
      result.values[2][ei][xi] = uncached.digests;
      result.values[3][ei][xi] = cached.mac_hits;
    } else {
      double hash = 0.0, cached = 0.0, uncached = 0.0;
      for (int t = 0; t < args.trials; ++t) {
        hash = std::max(hash, bench::hash_mbps(sizes[xi], seed));
        cached = std::max(cached, bench::verify_kops(true, sizes[xi]));
        uncached = std::max(uncached, bench::verify_kops(false, sizes[xi]));
      }
      result.values[0][ei][xi] = hash;
      result.values[1][ei][xi] = cached;
      result.values[2][ei][xi] = uncached;
    }
    crypto::set_engine("auto");
  });

  harness::write_sweep(result, args.format, f);
  if (f != stdout) std::fclose(f);
  return 0;
}
