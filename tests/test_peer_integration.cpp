// Integration tests for the DAPES peer: full protocol exchanges over the
// simulated medium (discovery -> metadata -> advertisements -> fetch),
// trust enforcement, both metadata formats, multi-hop relaying.
#include <gtest/gtest.h>

#include "dapes/collection.hpp"
#include "dapes/forwarder_node.hpp"
#include "dapes/peer.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::core {
namespace {

struct PeerIntegration : ::testing::Test {
  sim::Scheduler sched;
  common::Rng rng{31};
  crypto::KeyChain producer_keys;
  crypto::PrivateKey producer_key = producer_keys.generate_key("/producer");

  sim::Medium::Params medium_params(double range = 60, double loss = 0.05) {
    sim::Medium::Params p;
    p.range_m = range;
    p.loss_rate = loss;
    return p;
  }

  std::shared_ptr<Collection> collection(
      MetadataFormat format = MetadataFormat::kPacketDigest,
      size_t file_bytes = 16 * 1024) {
    return Collection::create_synthetic(
        ndn::Name("/coll-1533783192"), {{"f0", file_bytes}, {"f1", file_bytes}},
        1024, format, producer_key);
  }

  std::unique_ptr<Peer> make_peer(sim::Medium& medium,
                                  sim::MobilityModel* mobility,
                                  const std::string& id,
                                  PeerOptions options = {}) {
    options.id = id;
    auto peer =
        std::make_unique<Peer>(sched, medium, mobility, rng.fork(), options);
    peer->keychain().import_key(producer_key);
    peer->add_trust_anchor(producer_key.id());
    return peer;
  }

  void run_seconds(double s) {
    sched.run_until(common::TimePoint{static_cast<int64_t>(s * 1e6)});
  }
};

TEST_F(PeerIntegration, TwoPeerExchangeCompletes) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col = collection();
  auto producer = make_peer(medium, &pa, "alice");
  auto consumer = make_peer(medium, &pb, "bob");
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(60);
  EXPECT_TRUE(consumer->complete(col->name()));
  EXPECT_EQ(consumer->stats().integrity_failures, 0u);
  EXPECT_GT(producer->stats().data_packets_served, 0u);
}

TEST_F(PeerIntegration, MerkleFormatAlsoCompletes) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col = collection(MetadataFormat::kMerkleTree);
  auto producer = make_peer(medium, &pa, "alice");
  auto consumer = make_peer(medium, &pb, "bob");
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(60);
  EXPECT_TRUE(consumer->complete(col->name()));
}

TEST_F(PeerIntegration, UntrustedProducerRejected) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col = collection();
  auto producer = make_peer(medium, &pa, "alice");
  producer->publish(col);

  // Bob knows the key (can verify) but has NOT anchored it.
  PeerOptions po;
  po.id = "bob";
  auto consumer = std::make_unique<Peer>(sched, medium, &pb, rng.fork(), po);
  consumer->keychain().import_key(producer_key);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(40);
  EXPECT_FALSE(consumer->complete(col->name()));
  EXPECT_GT(consumer->stats().metadata_rejected, 0u);
  EXPECT_EQ(consumer->stats().data_packets_received, 0u);
}

TEST_F(PeerIntegration, OutOfRangePeersNeverExchange) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{0, 0}}, pb{{1000, 1000}};
  auto col = collection();
  auto producer = make_peer(medium, &pa, "alice");
  auto consumer = make_peer(medium, &pb, "bob");
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(30);
  EXPECT_FALSE(consumer->complete(col->name()));
  EXPECT_DOUBLE_EQ(consumer->progress(col->name()), 0.0);
}

TEST_F(PeerIntegration, ThirdPeerBenefitsFromOverhearing) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}}, pc{{115, 120}};
  auto col = collection();
  auto producer = make_peer(medium, &pa, "alice");
  auto bob = make_peer(medium, &pb, "bob");
  auto carol = make_peer(medium, &pc, "carol");
  producer->publish(col);
  bob->subscribe(col);
  carol->subscribe(col);
  producer->start();
  bob->start();
  carol->start();
  run_seconds(90);
  EXPECT_TRUE(bob->complete(col->name()));
  EXPECT_TRUE(carol->complete(col->name()));
  // The broadcast medium makes one transmission useful to both peers:
  // together they must have needed fewer interests than 2x the packet
  // count (overhearing or PIT aggregation saved transmissions).
  uint64_t interests =
      bob->stats().data_interests_sent + carol->stats().data_interests_sent;
  EXPECT_LT(interests, 2 * col->total_packets());
}

TEST_F(PeerIntegration, CompletedPeerSeedsOthers) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  // Producer is only in range of bob; carol is only in range of bob.
  sim::StationaryMobility pa{{0, 0}}, pb{{50, 0}}, pc{{100, 0}};
  auto col = collection(MetadataFormat::kPacketDigest, 8 * 1024);
  auto producer = make_peer(medium, &pa, "alice");
  auto bob = make_peer(medium, &pb, "bob");
  auto carol = make_peer(medium, &pc, "carol");
  producer->publish(col);
  bob->subscribe(col);
  carol->subscribe(col);
  producer->start();
  bob->start();
  carol->start();
  run_seconds(240);
  EXPECT_TRUE(bob->complete(col->name()));
  // Carol can only have gotten data via bob (serving or relaying).
  EXPECT_TRUE(carol->complete(col->name()));
}

TEST_F(PeerIntegration, PureForwarderBridgesTwoSegments) {
  sim::Medium medium(sched, medium_params(48, 0.02), rng.fork());
  // alice -- forwarder -- bob chain; alice and bob are out of range.
  sim::StationaryMobility pa{{0, 0}}, pf{{45, 0}}, pb{{90, 0}};
  auto col = collection(MetadataFormat::kPacketDigest, 4 * 1024);
  PeerOptions po;
  po.forward_probability = 0.6;  // dense relaying for the chain test
  auto producer = make_peer(medium, &pa, "alice", po);
  auto consumer = make_peer(medium, &pb, "bob", po);
  ForwarderNode::Options fo;
  fo.kind = ForwarderKind::kPureForwarder;
  fo.forward_probability = 0.6;
  ForwarderNode relay(sched, medium, &pf, rng.fork(), fo);
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(300);
  // Multi-hop via a pure forwarder: discovery/metadata/data all relayed.
  EXPECT_GT(consumer->progress(col->name()), 0.5);
  EXPECT_GT(relay.strategy().forwards(), 0u);
}

TEST_F(PeerIntegration, MultipleCollectionsConcurrently) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col1 = collection(MetadataFormat::kPacketDigest, 8 * 1024);
  auto col2 = Collection::create_synthetic(
      ndn::Name("/second-coll"), {{"g0", 8 * 1024}}, 1024,
      MetadataFormat::kPacketDigest, producer_key);
  auto producer = make_peer(medium, &pa, "alice");
  auto consumer = make_peer(medium, &pb, "bob");
  producer->publish(col1);
  producer->publish(col2);
  consumer->subscribe(col1);
  consumer->subscribe(col2);
  producer->start();
  consumer->start();
  run_seconds(120);
  EXPECT_TRUE(consumer->complete(col1->name()));
  EXPECT_TRUE(consumer->complete(col2->name()));
}

TEST_F(PeerIntegration, BitmapsFirstGateDelaysFetch) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col = collection();
  PeerOptions po;
  po.bitmaps_before_data = 1;
  auto producer = make_peer(medium, &pa, "alice", po);
  auto consumer = make_peer(medium, &pb, "bob", po);
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(90);
  EXPECT_TRUE(consumer->complete(col->name()));
}

TEST_F(PeerIntegration, ProgressAndDebugIntrospection) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col = collection();
  auto producer = make_peer(medium, &pa, "alice");
  auto consumer = make_peer(medium, &pb, "bob");
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(60);
  auto dbg = consumer->debug_download(col->name());
  EXPECT_TRUE(dbg.has_metadata);
  EXPECT_DOUBLE_EQ(dbg.progress, 1.0);
  EXPECT_GT(dbg.known_bitmaps, 0u);
  EXPECT_GT(consumer->state_bytes(), 0u);
  EXPECT_GT(consumer->knowledge_bytes(), 0u);
  // Unknown collection: empty debug.
  EXPECT_FALSE(consumer->debug_download(ndn::Name("/nope")).has_metadata);
}

TEST_F(PeerIntegration, CompletionCallbackFiresOnce) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  sim::StationaryMobility pa{{100, 100}}, pb{{130, 100}};
  auto col = collection(MetadataFormat::kPacketDigest, 4 * 1024);
  auto producer = make_peer(medium, &pa, "alice");
  auto consumer = make_peer(medium, &pb, "bob");
  int calls = 0;
  consumer->set_completion_callback(
      [&](const ndn::Name&, common::TimePoint) { ++calls; });
  producer->publish(col);
  consumer->subscribe(col);
  producer->start();
  consumer->start();
  run_seconds(120);
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(consumer->completion_time(col->name()).has_value());
  EXPECT_GT(consumer->completion_time(col->name())->us, 0);
}

}  // namespace
}  // namespace dapes::core
