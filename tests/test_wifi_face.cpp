// Unit tests for WifiFace: the broadcast face's random-timer data
// suppression (paper §III) and frame codec dispatch.
#include <gtest/gtest.h>

#include "ndn/face.hpp"
#include "ndn/forwarder.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;

struct WifiFaceTest : ::testing::Test {
  sim::Scheduler sched;
  sim::StationaryMobility pos_a{{0, 0}};
  sim::StationaryMobility pos_b{{10, 0}};
  common::Rng rng{17};

  sim::Medium::Params params() {
    sim::Medium::Params p;
    p.range_m = 50;
    p.loss_rate = 0.0;
    return p;
  }

  DataPtr data(const std::string& uri) {
    auto d = std::make_shared<Data>(Name(uri));
    d->set_content(bytes_of("payload"));
    return d;
  }
};

TEST_F(WifiFaceTest, InterestSendsImmediately) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  medium.add_node(&pos_b, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork());
  face.send_interest(Interest(Name("/x")));
  sched.run();
  EXPECT_EQ(face.interests_sent(), 1u);
  EXPECT_EQ(medium.stats().tx_by_kind["ndn-interest"], 1u);
}

TEST_F(WifiFaceTest, DataDelayedWithinWindow) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  sim::TimePoint received_at{};
  medium.add_node(&pos_b, [&](const sim::FramePtr&, sim::NodeId) {
    received_at = sched.now();
  });
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork(),
                common::Duration::milliseconds(20));
  face.send_data(data("/d/1"));
  EXPECT_EQ(face.data_sent(), 0u);  // still pending
  sched.run();
  EXPECT_EQ(face.data_sent(), 1u);
  EXPECT_LE(received_at.us, 21000 + 10000);  // window + airtime slack
}

TEST_F(WifiFaceTest, OverheardDuplicateSuppressesPending) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  medium.add_node(&pos_b, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork(),
                common::Duration::milliseconds(20));
  face.send_data(data("/dup/1"));
  // Another node's copy of the same data arrives before our timer fires.
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = 1;
  frame->payload = data("/dup/1")->encode();
  frame->kind = "ndn-data";
  face.on_frame(frame);
  sched.run();
  EXPECT_EQ(face.data_sent(), 0u);
  EXPECT_EQ(face.data_suppressed(), 1u);
}

TEST_F(WifiFaceTest, DifferentNameDoesNotSuppress) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  medium.add_node(&pos_b, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork(),
                common::Duration::milliseconds(20));
  face.send_data(data("/dup/1"));
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = 1;
  frame->payload = data("/dup/2")->encode();
  frame->kind = "ndn-data";
  face.on_frame(frame);
  sched.run();
  EXPECT_EQ(face.data_sent(), 1u);
  EXPECT_EQ(face.data_suppressed(), 0u);
}

TEST_F(WifiFaceTest, SameNameQueuedOnce) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  medium.add_node(&pos_b, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork(),
                common::Duration::milliseconds(20));
  face.send_data(data("/once/1"));
  face.send_data(data("/once/1"));
  sched.run();
  EXPECT_EQ(face.data_sent(), 1u);
}

TEST_F(WifiFaceTest, ZeroWindowSendsImmediately) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  medium.add_node(&pos_b, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork(), common::Duration{0});
  face.send_data(data("/now/1"));
  EXPECT_EQ(face.data_sent(), 1u);
}

TEST_F(WifiFaceTest, IgnoresForeignFrames) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork());
  int delivered = 0;
  face.set_receive_handlers([&](const Interest&) { ++delivered; },
                            [&](DataPtr) { ++delivered; });
  // An IP-lite frame (magic 0x45) and garbage must both be ignored.
  auto ip_frame = std::make_shared<sim::Frame>();
  ip_frame->payload = common::Bytes{0x45, 1, 2, 3};
  face.on_frame(ip_frame);
  auto junk = std::make_shared<sim::Frame>();
  junk->payload = common::Bytes{0x05, 0xff, 0xff};  // truncated interest
  face.on_frame(junk);
  auto empty = std::make_shared<sim::Frame>();
  face.on_frame(empty);
  EXPECT_EQ(delivered, 0);
}

TEST_F(WifiFaceTest, DecodesAndDeliversBothPacketTypes) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork());
  int interests = 0, datas = 0;
  face.set_receive_handlers([&](const Interest&) { ++interests; },
                            [&](DataPtr) { ++datas; });
  auto iframe = std::make_shared<sim::Frame>();
  iframe->payload = Interest(Name("/i")).encode();
  face.on_frame(iframe);
  auto dframe = std::make_shared<sim::Frame>();
  dframe->payload = data("/d")->encode();
  face.on_frame(dframe);
  EXPECT_EQ(interests, 1);
  EXPECT_EQ(datas, 1);
}

TEST_F(WifiFaceTest, NextInterestTxCallbackIsOneShot) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  medium.add_node(&pos_b, nullptr);
  sim::Radio radio(sched, medium, a, rng.fork());
  WifiFace face(sched, radio, a, rng.fork());
  int reports = 0;
  face.set_next_interest_tx_callback(
      [&](const sim::Medium::TxReport&) { ++reports; });
  face.send_interest(Interest(Name("/first")));
  face.send_interest(Interest(Name("/second")));
  sched.run();
  EXPECT_EQ(reports, 1);
}

}  // namespace
}  // namespace dapes::ndn
