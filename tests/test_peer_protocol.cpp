// Protocol-level unit tests for Peer behaviours not covered by the
// integration suite: adaptive discovery period, fetch gating across
// encounters, forwarder-node knowledge reuse, and failure-injection
// cases (lossy channels, disappearing holders).
#include <gtest/gtest.h>

#include "dapes/collection.hpp"
#include "dapes/forwarder_node.hpp"
#include "dapes/peer.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::core {
namespace {

struct PeerProtocol : ::testing::Test {
  sim::Scheduler sched;
  common::Rng rng{77};
  crypto::KeyChain keys;
  crypto::PrivateKey key = keys.generate_key("/producer");

  std::shared_ptr<Collection> collection(size_t file_bytes = 8 * 1024) {
    return Collection::create_synthetic(
        ndn::Name("/coll"), {{"f0", file_bytes}}, 1024,
        MetadataFormat::kPacketDigest, key);
  }

  std::unique_ptr<Peer> make_peer(sim::Medium& medium,
                                  sim::MobilityModel* mobility,
                                  const std::string& id,
                                  PeerOptions options = {}) {
    options.id = id;
    auto peer =
        std::make_unique<Peer>(sched, medium, mobility, rng.fork(), options);
    peer->keychain().import_key(key);
    peer->add_trust_anchor(key.id());
    return peer;
  }

  void run_seconds(double s) {
    sched.run_until(common::TimePoint{static_cast<int64_t>(s * 1e6)});
  }
};

TEST_F(PeerProtocol, DiscoveryBacksOffInIsolation) {
  sim::Medium::Params mp;
  mp.range_m = 50;
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility alone{{0, 0}};
  auto peer = make_peer(medium, &alone, "hermit");
  peer->subscribe(collection());
  peer->start();
  run_seconds(120);
  // With exponential backoff to the 6 s ceiling (+<=25% jitter) an
  // isolated peer sends far fewer queries than the 1 s floor would
  // produce.
  uint64_t sent = peer->stats().discovery_interests_sent;
  EXPECT_LT(sent, 40u);  // 120 at the floor; ~20-25 with backoff
  EXPECT_GT(sent, 8u);
}

TEST_F(PeerProtocol, DiscoveryStaysFastAmongNeighbors) {
  sim::Medium::Params mp;
  mp.range_m = 50;
  mp.loss_rate = 0.0;
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility pa{{0, 0}}, pb{{20, 0}};
  auto col = collection();
  auto a = make_peer(medium, &pa, "a");
  auto b = make_peer(medium, &pb, "b");
  a->publish(col);
  b->subscribe(col);
  a->start();
  b->start();
  run_seconds(60);
  // Neighbors keep each other fresh: near the 1 s floor (with jitter).
  EXPECT_GT(b->stats().discovery_interests_sent, 35u);
}

TEST_F(PeerProtocol, SurvivesHeavyLoss) {
  sim::Medium::Params mp;
  mp.range_m = 50;
  mp.loss_rate = 0.35;  // brutal channel
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility pa{{0, 0}}, pb{{20, 0}};
  auto col = collection();
  auto a = make_peer(medium, &pa, "a");
  auto b = make_peer(medium, &pb, "b");
  a->publish(col);
  b->subscribe(col);
  a->start();
  b->start();
  run_seconds(300);
  EXPECT_TRUE(b->complete(col->name()));
  EXPECT_GT(b->stats().interest_timeouts, 0u);  // retries happened
}

TEST_F(PeerProtocol, IntermittentContactResumesAcrossEncounters) {
  sim::Medium::Params mp;
  mp.range_m = 50;
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility pa{{0, 0}};
  // b visits a briefly, leaves before the download finishes, returns.
  sim::WaypointMobility pb({
      {common::TimePoint{0}, {30, 0}},
      {common::TimePoint{15000000}, {30, 0}},    // 15 s contact
      {common::TimePoint{25000000}, {500, 0}},   // gone
      {common::TimePoint{120000000}, {500, 0}},
      {common::TimePoint{130000000}, {30, 0}},   // returns at 130 s
      {common::TimePoint{400000000}, {30, 0}},
  });
  auto col = collection(64 * 1024);  // too big for one 15 s contact at
                                     // the scaled rate? generous either
                                     // way — the point is resumption
  PeerOptions po;
  auto a = make_peer(medium, &pa, "a", po);
  auto b = make_peer(medium, &pb, "b", po);
  a->publish(col);
  b->subscribe(col);
  a->start();
  b->start();
  run_seconds(100);
  double mid_progress = b->progress(col->name());
  run_seconds(400);
  EXPECT_TRUE(b->complete(col->name()));
  EXPECT_GE(b->progress(col->name()), mid_progress);
}

TEST_F(PeerProtocol, IntermediateNodeAccumulatesKnowledge) {
  sim::Medium::Params mp;
  mp.range_m = 50;
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility pa{{0, 0}}, pb{{30, 0}}, pi{{15, 10}};
  auto col = collection();
  auto a = make_peer(medium, &pa, "a");
  auto b = make_peer(medium, &pb, "b");
  ForwarderNode::Options fo;
  fo.kind = ForwarderKind::kDapesIntermediate;
  ForwarderNode observer(sched, medium, &pi, rng.fork(), fo);
  a->publish(col);
  b->subscribe(col);
  a->start();
  b->start();
  run_seconds(60);
  EXPECT_TRUE(b->complete(col->name()));
  // The bystander overheard announcements/data: knowledge accrued,
  // overheard content cached.
  EXPECT_GT(observer.state_bytes(), 0u);
}

TEST_F(PeerProtocol, SecondConsumerServedByFirstAfterProducerLeaves) {
  sim::Medium::Params mp;
  mp.range_m = 50;
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility pb{{30, 0}}, pc{{60, 0}};
  // Producer stays only for the first 120 s, then disappears forever.
  sim::WaypointMobility pa({
      {common::TimePoint{0}, {0, 0}},
      {common::TimePoint{120000000}, {0, 0}},
      {common::TimePoint{125000000}, {5000, 0}},
      {common::TimePoint{600000000}, {5000, 0}},
  });
  auto col = collection();
  auto a = make_peer(medium, &pa, "a");
  auto b = make_peer(medium, &pb, "b");   // in range of both a and c
  auto c = make_peer(medium, &pc, "c");   // never in range of a
  a->publish(col);
  b->subscribe(col);
  c->subscribe(col);
  a->start();
  b->start();
  c->start();
  run_seconds(500);
  EXPECT_TRUE(b->complete(col->name()));
  // c finishes even though the producer is long gone: b re-serves.
  EXPECT_TRUE(c->complete(col->name()));
}

TEST_F(PeerProtocol, PublishThenSubscribeIsIdempotent) {
  sim::Medium::Params mp;
  sim::Medium medium(sched, mp, rng.fork());
  sim::StationaryMobility pa{{0, 0}};
  auto col = collection();
  auto a = make_peer(medium, &pa, "a");
  a->publish(col);
  a->subscribe(col);  // no-op: already holds the collection state
  EXPECT_TRUE(a->complete(col->name()));
  EXPECT_DOUBLE_EQ(a->progress(col->name()), 1.0);
}

}  // namespace
}  // namespace dapes::core
