// The verify-result cache layer, end to end (DESIGN.md "Crypto engine &
// verify cache"):
//   * hash-once-per-frame regression: `Data::verify` must not recompute
//     the content digest per verify call (latent since the zero-copy PR,
//     where per-receiver re-hashing became the top profile entry);
//   * hit-once-per-broadcast: through a real medium broadcast, the
//     delivery prewarm hashes and MAC-checks one frame once, and every
//     receiver's verify is served from the cache;
//   * mutation invalidation (the test_zero_copy idiom): mutating a packet
//     drops its cached wire, and the re-encode lands in a fresh buffer,
//     so a stale verdict is unreachable;
//   * eviction and capacity accounting of the cache itself;
//   * trial equivalence: the cache is exact, so for 12 randomized seeds
//     (channel x mobility mixed) every deterministic TrialResult field is
//     bit-identical with the cache on or off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/keychain.hpp"
#include "crypto/verify_cache.hpp"
#include "harness/driver.hpp"
#include "ndn/face.hpp"
#include "ndn/packet.hpp"
#include "ndn/verify_prewarm.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes {
namespace {

using common::BufferSlice;
using common::Bytes;
using common::bytes_of;

crypto::Digest digest_of(const char* text) {
  return crypto::Sha256::hash(std::string_view(text));
}

// --- hash-once-per-frame regression --------------------------------------

struct HashOncePerFrame : ::testing::Test {
  void SetUp() override { crypto::verify_counters().reset(); }
  void TearDown() override { crypto::verify_counters().reset(); }
};

TEST_F(HashOncePerFrame, RepeatedVerifyHashesContentOnce) {
  crypto::KeyChain keychain;
  crypto::PrivateKey key = keychain.generate_key("/producer");
  ndn::Data data(ndn::Name("/hash/once/0"));
  data.set_content(Bytes(4096, 0x5a));

  crypto::verify_counters().reset();
  data.sign(key);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(data.verify(keychain));
  }
  // sign() hashed the content once and warmed the per-packet memo; the
  // five verifies must all reuse it. The pre-fix code re-hashed the 4 KiB
  // content inside KeyChain::verify on every call (6 computes here).
  EXPECT_EQ(crypto::verify_counters().content_digests_computed.load(), 1u);
}

TEST_F(HashOncePerFrame, DecodedPacketHashesContentOnce) {
  crypto::KeyChain keychain;
  crypto::PrivateKey key = keychain.generate_key("/producer");
  ndn::Data origin(ndn::Name("/hash/once/1"));
  origin.set_content(Bytes(1024, 0x33));
  origin.sign(key);

  auto decoded = ndn::Data::decode(origin.wire());
  ASSERT_TRUE(decoded.has_value());
  crypto::verify_counters().reset();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(decoded->verify(keychain));
  }
  EXPECT_EQ(crypto::verify_counters().content_digests_computed.load(), 1u);
}

// --- cache unit behavior --------------------------------------------------

TEST(VerifyCacheUnit, StoreLookupRoundTrip) {
  crypto::VerifyCache cache;
  BufferSlice wire(bytes_of("some frame bytes"));
  const crypto::Digest digest = digest_of("digest");
  const crypto::Digest secret = digest_of("secret");

  EXPECT_FALSE(cache.lookup_digest(wire.data(), wire.size()).has_value());
  cache.store_digest(wire, digest);
  auto hit = cache.lookup_digest(wire.data(), wire.size());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, digest);

  EXPECT_FALSE(cache.lookup_mac(wire.data(), wire.size(), secret).has_value());
  cache.store_mac(wire, secret, true);
  auto verdict = cache.lookup_mac(wire.data(), wire.size(), secret);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_TRUE(*verdict);
  // A different secret is a different check: no cross-key verdicts.
  EXPECT_FALSE(
      cache.lookup_mac(wire.data(), wire.size(), digest_of("other")).has_value());
}

TEST(VerifyCacheUnit, UnanchoredSlicesAreNotCached) {
  crypto::VerifyCache cache;
  Bytes backing = bytes_of("borrowed bytes");
  // A borrowed view has no ref-counted buffer to pin, so the store must
  // refuse it: a pointer key into freed memory would be an ABA bug.
  BufferSlice borrowed = BufferSlice::unowned(
      common::BytesView(backing.data(), backing.size()));
  cache.store_digest(borrowed, digest_of("x"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerifyCacheUnit, EvictionAndCapacityAccounting) {
  crypto::VerifyCache cache(8);
  EXPECT_EQ(cache.capacity(), 8u);
  std::vector<BufferSlice> slices;
  for (int i = 0; i < 12; ++i) {
    slices.push_back(BufferSlice(bytes_of("entry " + std::to_string(i))));
    cache.store_digest(slices.back(), digest_of("d"));
  }
  // Capacity is per kind; the four oldest digests were evicted.
  EXPECT_EQ(cache.size(), 8u);
  crypto::VerifyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 12u);
  EXPECT_EQ(stats.evictions, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(
        cache.lookup_digest(slices[i].data(), slices[i].size()).has_value())
        << i;
  }
  for (int i = 4; i < 12; ++i) {
    EXPECT_TRUE(
        cache.lookup_digest(slices[i].data(), slices[i].size()).has_value())
        << i;
  }
  // MAC entries are accounted separately and don't displace digests.
  cache.store_mac(slices[11], digest_of("secret"), true);
  EXPECT_EQ(cache.size(), 9u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerifyCacheUnit, ReStoreRefreshesEvictionOrder) {
  crypto::VerifyCache cache(8);
  std::vector<BufferSlice> slices;
  for (int i = 0; i < 8; ++i) {
    slices.push_back(BufferSlice(bytes_of("refresh " + std::to_string(i))));
    cache.store_digest(slices[i], digest_of("d"));
  }
  // Refresh the oldest, then overflow by one: the second-oldest goes.
  cache.store_digest(slices[0], digest_of("d"));
  BufferSlice extra(bytes_of("one more"));
  cache.store_digest(extra, digest_of("d"));
  EXPECT_TRUE(
      cache.lookup_digest(slices[0].data(), slices[0].size()).has_value());
  EXPECT_FALSE(
      cache.lookup_digest(slices[1].data(), slices[1].size()).has_value());
}

// --- broadcast scenario: hit once per broadcast ---------------------------

struct BroadcastVerify : ::testing::Test {
  sim::Scheduler sched;
  sim::StationaryMobility pos_a{{0, 0}};
  sim::StationaryMobility pos_b{{10, 0}};
  sim::StationaryMobility pos_c{{20, 0}};
  common::Rng rng{99};
  crypto::KeyChain keychain;
  crypto::PrivateKey key;
  std::vector<std::shared_ptr<sim::Radio>> radios;

  void SetUp() override {
    key = keychain.generate_key("/producer");
    crypto::verify_counters().reset();
  }
  void TearDown() override { crypto::verify_counters().reset(); }

  sim::Medium::Params params() {
    sim::Medium::Params p;
    p.range_m = 100;
    p.loss_rate = 0.0;
    return p;
  }
};

TEST_F(BroadcastVerify, BroadcastVerifiedOncePerFrameNotPerReceiver) {
  sim::Medium medium(sched, params(), rng.fork());
  crypto::VerifyCache cache;
  ndn::DataVerifyPrewarm prewarm(cache, keychain);
  medium.set_prewarm(&prewarm);
  crypto::VerifyCacheScope scope(&cache);

  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  std::vector<std::shared_ptr<ndn::WifiFace>> receivers;
  std::vector<bool> verified;
  for (auto* pos : {&pos_b, &pos_c}) {
    auto idx = receivers.size();
    sim::NodeId node = medium.add_node(
        pos, [this, idx, &receivers](const sim::FramePtr& frame, sim::NodeId) {
          receivers[idx]->on_frame(frame);
        });
    auto radio = std::make_shared<sim::Radio>(sched, medium, node, rng.fork());
    auto face = std::make_shared<ndn::WifiFace>(sched, *radio, node,
                                                rng.fork(), common::Duration{0});
    face->set_receive_handlers(nullptr, [this, &verified](const ndn::Data& d) {
      verified.push_back(d.verify(keychain));
    });
    radios.push_back(std::move(radio));
    receivers.push_back(std::move(face));
  }

  ndn::Data data(ndn::Name("/vc/broadcast/0"));
  data.set_content(Bytes(2048, 0x7e));
  data.set_freshness(common::Duration::seconds(100.0));
  data.sign(key);

  sim::Radio radio_a(sched, medium, a, rng.fork());
  ndn::WifiFace sender(sched, radio_a, a, rng.fork(), common::Duration{0});
  crypto::verify_counters().reset();
  sender.send_data(data);
  sched.run();

  // Both receivers verified successfully...
  ASSERT_EQ(verified.size(), 2u);
  EXPECT_TRUE(verified[0]);
  EXPECT_TRUE(verified[1]);
  // ...but the frame's content was hashed exactly once (by the delivery
  // prewarm), and both verifies were served as MAC-verdict cache hits.
  EXPECT_EQ(crypto::verify_counters().content_digests_computed.load(), 1u);
  crypto::VerifyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.mac_hits, 2u);
}

TEST_F(BroadcastVerify, FanoutHashesOncePerFrame) {
  // The dense regime the cache exists for: one sender, a crowd of
  // receivers, every receiver verifying every frame. Uncached this costs
  // frames x receivers digests; the prewarm pins it to exactly one
  // digest per frame, with every per-receiver verify a MAC-verdict hit.
  constexpr size_t kReceivers = 20;
  constexpr int kFrames = 10;
  sim::Medium medium(sched, params(), rng.fork());
  crypto::VerifyCache cache;
  ndn::DataVerifyPrewarm prewarm(cache, keychain);
  medium.set_prewarm(&prewarm);
  crypto::VerifyCacheScope scope(&cache);

  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  std::vector<std::unique_ptr<sim::StationaryMobility>> spots;
  std::vector<std::shared_ptr<ndn::WifiFace>> receivers;
  size_t verified = 0;
  for (size_t r = 0; r < kReceivers; ++r) {
    spots.push_back(std::make_unique<sim::StationaryMobility>(
        sim::Vec2{5.0 + static_cast<double>(r), 3.0}));
    auto idx = receivers.size();
    sim::NodeId node = medium.add_node(
        spots.back().get(),
        [idx, &receivers](const sim::FramePtr& frame, sim::NodeId) {
          receivers[idx]->on_frame(frame);
        });
    auto radio = std::make_shared<sim::Radio>(sched, medium, node, rng.fork());
    auto face = std::make_shared<ndn::WifiFace>(sched, *radio, node,
                                                rng.fork(), common::Duration{0});
    face->set_receive_handlers(nullptr,
                               [this, &verified](const ndn::Data& d) {
                                 ASSERT_TRUE(d.verify(keychain));
                                 ++verified;
                               });
    radios.push_back(std::move(radio));
    receivers.push_back(std::move(face));
  }

  sim::Radio radio_a(sched, medium, a, rng.fork());
  ndn::WifiFace sender(sched, radio_a, a, rng.fork(), common::Duration{0});
  std::vector<ndn::Data> frames;
  for (int f = 0; f < kFrames; ++f) {
    ndn::Data data(ndn::Name("/vc/fanout/" + std::to_string(f)));
    data.set_content(Bytes(2048, static_cast<uint8_t>(f)));
    data.set_freshness(common::Duration::seconds(100.0));
    data.sign(key);
    frames.push_back(std::move(data));
  }
  crypto::verify_counters().reset();
  for (const ndn::Data& data : frames) {
    sender.send_data(data);
    sched.run();
  }

  ASSERT_EQ(verified, kReceivers * kFrames);
  // The prewarm hashes each delivered frame's content exactly once and
  // serves all 200 receiver verifies from the MAC-verdict cache — the
  // uncached path would have computed kReceivers x kFrames digests.
  EXPECT_EQ(crypto::verify_counters().content_digests_computed.load(),
            static_cast<uint64_t>(kFrames));
  EXPECT_EQ(cache.stats().mac_hits,
            static_cast<uint64_t>(kReceivers * kFrames));
}

TEST_F(BroadcastVerify, MutationInvalidatesCachedVerdict) {
  crypto::VerifyCache cache;
  ndn::DataVerifyPrewarm prewarm(cache, keychain);
  crypto::VerifyCacheScope scope(&cache);

  // Prewarm a signed frame the way the medium would.
  ndn::Data origin(ndn::Name("/vc/mut/0"));
  origin.set_content(bytes_of("original content"));
  origin.sign(key);
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = 0;
  frame->payload = origin.wire();
  frame->kind = "ndn-data";
  prewarm.prewarm(*frame);

  auto decoded = ndn::Data::decode(frame->payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->verify(keychain));
  EXPECT_GT(cache.stats().mac_hits, 0u);

  // Mutating the packet invalidates its cached wire; the next verify
  // must not see the stale verdict. The old signature no longer matches
  // the new content, and the re-encode lands in a fresh allocation, so
  // the pointer key cannot collide with the cached entry.
  ndn::Data mutated = *decoded;
  mutated.set_content(bytes_of("tampered content"));
  EXPECT_FALSE(mutated.has_wire());
  EXPECT_FALSE(mutated.verify(keychain));
  EXPECT_NE(mutated.wire().data(), frame->payload.data());

  // Re-signing restores a verifiable binding (computed, not cached).
  mutated.sign(key);
  EXPECT_TRUE(mutated.verify(keychain));
}

TEST_F(BroadcastVerify, UnknownSignerIsNotCachedAsValid) {
  crypto::VerifyCache cache;
  ndn::DataVerifyPrewarm prewarm(cache, keychain);
  crypto::VerifyCacheScope scope(&cache);

  crypto::KeyChain stranger_chain;
  crypto::PrivateKey stranger = stranger_chain.generate_key("/stranger");
  ndn::Data data(ndn::Name("/vc/stranger/0"));
  data.set_content(bytes_of("who signed this"));
  data.sign(stranger);

  auto frame = std::make_shared<sim::Frame>();
  frame->sender = 0;
  frame->payload = data.wire();
  frame->kind = "ndn-data";
  prewarm.prewarm(*frame);

  auto decoded = ndn::Data::decode(frame->payload);
  ASSERT_TRUE(decoded.has_value());
  // The trust keychain doesn't know the signer: verify is false, with or
  // without the cache (the prewarm caches the digest but no verdict).
  EXPECT_FALSE(decoded->verify(keychain));
}

// --- trial equivalence: cached vs uncached -------------------------------

namespace equivalence {

using harness::ProtocolNames;
using harness::ScenarioParams;
using harness::TrialResult;

// Small enough for suite speed, varied enough that seeds cover
// {unit-disk, log-distance} x {waypoint, group}.
ScenarioParams small_field(uint64_t seed) {
  ScenarioParams p;
  p.files = 1;
  p.file_size_bytes = 8 * 1024;
  p.mobile_downloaders = 8;
  p.stationary_downloaders = 2;
  p.pure_forwarders = 3;
  p.dapes_intermediates = 3;
  p.wifi_range_m = 80.0;
  p.data_rate_bps = 11e6;
  p.sim_limit_s = 300.0;
  p.seed = seed;
  p.mobility = (seed % 2 == 0) ? harness::MobilityKind::kRandomWaypoint
                               : harness::MobilityKind::kGroup;
  if ((seed / 2) % 2 == 1) {
    p.channel.model = "log-distance";
    p.channel.shadowing_sigma_db = 4.0;
  }
  return p;
}

void expect_equal(const TrialResult& a, const TrialResult& b) {
  EXPECT_DOUBLE_EQ(a.download_time_s, b.download_time_s);
  EXPECT_DOUBLE_EQ(a.completion_fraction, b.completion_fraction);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.tx_by_kind, b.tx_by_kind);
  EXPECT_EQ(a.collided_frames, b.collided_frames);
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes);
  EXPECT_EQ(a.total_state_bytes, b.total_state_bytes);
  EXPECT_EQ(a.peak_knowledge_bytes, b.peak_knowledge_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

class CachedTrialEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CachedTrialEquivalence, CacheDoesNotChangeResults) {
  ScenarioParams cached = small_field(GetParam());
  cached.verify_cache = true;
  ScenarioParams uncached = small_field(GetParam());
  uncached.verify_cache = false;

  TrialResult with_cache = run_trial(ProtocolNames::kScaleField, cached);
  ASSERT_GT(with_cache.transmissions, 0u);
  TrialResult without = run_trial(ProtocolNames::kScaleField, uncached);
  expect_equal(with_cache, without);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedTrialEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CachedTrial, CacheActuallyServesTheTrial) {
  // Guard against the whole layer silently wiring to a no-op: through a
  // full protocol trial, the prewarm must store entries and the receive
  // path must serve verifies from them — both the per-packet integrity
  // digests and the metadata MAC checks. (The compute-count *savings*
  // depend on verifiers-per-broadcast, a density property this small
  // trial doesn't have; BroadcastVerify.FanoutHashesOncePerFrame pins
  // the exact once-per-frame arithmetic, and the bench_crypto workload
  // measures the dense-regime speedup.)
  crypto::verify_counters().reset();
  ScenarioParams p = small_field(3);
  p.wifi_range_m = 150.0;
  p.loss_rate = 0.0;
  p.verify_cache = true;
  run_trial(ProtocolNames::kScaleField, p);
  const uint64_t mac_hits = crypto::verify_counters().mac_hits.load();
  const uint64_t digest_hits = crypto::verify_counters().digest_hits.load();
  const uint64_t insertions = crypto::verify_counters().insertions.load();

  crypto::verify_counters().reset();
  p.verify_cache = false;
  run_trial(ProtocolNames::kScaleField, p);
  // With the knob off nothing touches a cache at all.
  EXPECT_EQ(crypto::verify_counters().mac_hits.load(), 0u);
  EXPECT_EQ(crypto::verify_counters().insertions.load(), 0u);
  crypto::verify_counters().reset();

  EXPECT_GT(insertions, 0u);
  EXPECT_GT(mac_hits, 0u);
  EXPECT_GT(digest_hits, 0u);
}

}  // namespace equivalence

}  // namespace
}  // namespace dapes
