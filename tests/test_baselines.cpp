// Unit tests for the IP baselines: Bithoc and Ekta.
#include <gtest/gtest.h>

#include "baselines/bithoc.hpp"
#include "baselines/ekta.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::baselines {
namespace {

struct BaselineTest : ::testing::Test {
  sim::Scheduler sched;
  common::Rng rng{21};
  sim::StationaryMobility pos_a{{100, 100}};
  sim::StationaryMobility pos_b{{130, 100}};
  sim::StationaryMobility pos_c{{160, 100}};

  std::shared_ptr<core::Collection> collection() {
    crypto::KeyChain kc;
    auto key = kc.generate_key("/p");
    return core::Collection::create_synthetic(
        ndn::Name("/c"), {{"f0", 8 * 1024}, {"f1", 4 * 1024}}, 1024,
        core::MetadataFormat::kPacketDigest, key);
  }

  sim::Medium::Params medium_params() {
    sim::Medium::Params p;
    p.range_m = 50;
    p.loss_rate = 0.05;
    return p;
  }
};

TEST_F(BaselineTest, BithocTwoPeersComplete) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  auto col = collection();
  BithocPeer seed(sched, medium, &pos_a, rng.fork(), col, true);
  BithocPeer leech(sched, medium, &pos_b, rng.fork(), col, false);
  bool cb_fired = false;
  leech.set_completion_callback([&](common::TimePoint) { cb_fired = true; });
  seed.start();
  leech.start();
  sched.run_until(common::TimePoint{120000000});
  EXPECT_TRUE(leech.complete());
  EXPECT_TRUE(cb_fired);
  EXPECT_DOUBLE_EQ(leech.progress(), 1.0);
  EXPECT_EQ(leech.stats().pieces_received, col->total_packets());
  EXPECT_GE(seed.stats().pieces_served, col->total_packets());
}

TEST_F(BaselineTest, BithocSeedIsCompleteFromStart) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  auto col = collection();
  BithocPeer seed(sched, medium, &pos_a, rng.fork(), col, true);
  EXPECT_TRUE(seed.complete());
  EXPECT_DOUBLE_EQ(seed.progress(), 1.0);
}

TEST_F(BaselineTest, BithocHellosCarryBitmaps) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  auto col = collection();
  BithocPeer seed(sched, medium, &pos_a, rng.fork(), col, true);
  BithocPeer leech(sched, medium, &pos_b, rng.fork(), col, false);
  seed.start();
  leech.start();
  sched.run_until(common::TimePoint{10000000});
  EXPECT_GT(medium.stats().tx_by_kind["bithoc-hello"], 0u);
  EXPECT_GT(seed.stats().hellos_sent, 0u);
}

TEST_F(BaselineTest, BithocRelaySpreadsHellosTwoHops) {
  // a - b - c with a and c out of range: c learns a's pieces through the
  // scoped flood relayed by b.
  sim::StationaryMobility far_c{{190, 100}};
  sim::Medium::Params mp;
  mp.range_m = 48;  // a<->b and b<->c in range (30/60m apart), a<->c not
  mp.loss_rate = 0.0;
  sim::StationaryMobility mid_b{{145, 100}};
  sim::Medium medium(sched, mp, rng.fork());
  auto col = collection();
  BithocPeer a(sched, medium, &pos_a, rng.fork(), col, true);
  BithocPeer b(sched, medium, &mid_b, rng.fork(), col, false);
  BithocPeer c(sched, medium, &far_c, rng.fork(), col, false);
  a.start();
  b.start();
  c.start();
  sched.run_until(common::TimePoint{300000000});
  EXPECT_TRUE(b.complete());
  EXPECT_TRUE(c.complete());
}

TEST_F(BaselineTest, EktaTwoPeersComplete) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  auto col = collection();
  EktaPeer seed(sched, medium, &pos_a, rng.fork(), col, true);
  EktaPeer leech(sched, medium, &pos_b, rng.fork(), col, false);
  for (auto* x : {&seed, &leech}) {
    x->add_member(seed.address());
    x->add_member(leech.address());
  }
  seed.start();
  leech.start();
  sched.run_until(common::TimePoint{200000000});
  EXPECT_TRUE(leech.complete());
  EXPECT_EQ(leech.stats().pieces_received, col->total_packets());
}

TEST_F(BaselineTest, EktaPublishesAndLooksUpThroughDht) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  auto col = collection();
  EktaPeer seed(sched, medium, &pos_a, rng.fork(), col, true);
  EktaPeer mid(sched, medium, &pos_b, rng.fork(), col, false);
  EktaPeer leech(sched, medium, &pos_c, rng.fork(), col, false);
  for (auto* x : {&seed, &mid, &leech}) {
    for (auto* y : {&seed, &mid, &leech}) x->add_member(y->address());
  }
  seed.start();
  mid.start();
  leech.start();
  sched.run_until(common::TimePoint{300000000});
  EXPECT_TRUE(mid.complete());
  EXPECT_TRUE(leech.complete());
  // DHT control traffic flowed.
  EXPECT_GT(seed.stats().puts_sent + mid.stats().puts_sent +
                leech.stats().puts_sent,
            0u);
}

TEST_F(BaselineTest, EktaDhtIdsAreStable) {
  EXPECT_EQ(EktaPeer::dht_id(5), EktaPeer::dht_id(5));
  EXPECT_NE(EktaPeer::dht_id(5), EktaPeer::dht_id(6));
}

TEST_F(BaselineTest, StateBytesNonzeroOnceRunning) {
  sim::Medium medium(sched, medium_params(), rng.fork());
  auto col = collection();
  BithocPeer seed(sched, medium, &pos_a, rng.fork(), col, true);
  BithocPeer leech(sched, medium, &pos_b, rng.fork(), col, false);
  seed.start();
  leech.start();
  sched.run_until(common::TimePoint{30000000});
  EXPECT_GT(leech.state_bytes(), 0u);
}

}  // namespace
}  // namespace dapes::baselines
