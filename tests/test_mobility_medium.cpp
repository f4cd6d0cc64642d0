// Unit tests for mobility models, the wireless medium (range, loss,
// collisions, capture) and the CSMA radio.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/radio.hpp"

namespace dapes::sim {
namespace {

TEST(Mobility, StationaryNeverMoves) {
  StationaryMobility m({10, 20});
  EXPECT_EQ(m.position_at(TimePoint{0}), (Vec2{10, 20}));
  EXPECT_EQ(m.position_at(TimePoint{100000000}), (Vec2{10, 20}));
}

class RandomDirectionField : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDirectionField, StaysInsideField) {
  RandomDirectionMobility m({150, 150}, Field{300, 300},
                            common::Rng(GetParam()));
  for (int s = 0; s < 600; s += 3) {
    Vec2 p = m.position_at(TimePoint{static_cast<int64_t>(s) * 1000000});
    EXPECT_GE(p.x, -1e-6);
    EXPECT_GE(p.y, -1e-6);
    EXPECT_LE(p.x, 300 + 1e-6);
    EXPECT_LE(p.y, 300 + 1e-6);
  }
}

TEST_P(RandomDirectionField, SpeedWithinConfiguredBounds) {
  // Effectively unbounded field: no reflections.
  RandomDirectionMobility m({5e6, 5e6}, Field{1e7, 1e7},
                            common::Rng(GetParam()));
  for (int s = 0; s < 100; ++s) {
    Vec2 a = m.position_at(TimePoint{static_cast<int64_t>(s) * 1000000});
    Vec2 b = m.position_at(TimePoint{static_cast<int64_t>(s + 1) * 1000000});
    double speed = distance(a, b);  // meters over one second
    EXPECT_LE(speed, kMaxSpeedMps + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDirectionField,
                         ::testing::Values(1, 2, 3, 42, 99));

TEST(Mobility, RandomDirectionDeterministic) {
  const Field field{300, 300};
  RandomDirectionMobility a({150, 150}, field, common::Rng(7));
  RandomDirectionMobility b({150, 150}, field, common::Rng(7));
  for (int s = 0; s < 100; s += 10) {
    TimePoint t{static_cast<int64_t>(s) * 1000000};
    EXPECT_EQ(a.position_at(t), b.position_at(t));
  }
}

TEST(Mobility, WaypointInterpolates) {
  WaypointMobility m({{TimePoint{0}, {0, 0}}, {TimePoint{10000000}, {10, 0}}});
  EXPECT_EQ(m.position_at(TimePoint{5000000}), (Vec2{5, 0}));
  EXPECT_EQ(m.position_at(TimePoint{0}), (Vec2{0, 0}));
  // Holds last position afterwards.
  EXPECT_EQ(m.position_at(TimePoint{99000000}), (Vec2{10, 0}));
}

TEST(Mobility, WaypointBeforeStartHoldsFirst) {
  WaypointMobility m({{TimePoint{5000000}, {3, 4}},
                      {TimePoint{10000000}, {10, 0}}});
  EXPECT_EQ(m.position_at(TimePoint{0}), (Vec2{3, 4}));
}

TEST(Mobility, WaypointRejectsEmptyAndUnsorted) {
  EXPECT_THROW(WaypointMobility{std::vector<WaypointMobility::Waypoint>{}},
               std::invalid_argument);
  EXPECT_THROW(WaypointMobility({{TimePoint{10}, {0, 0}}, {TimePoint{5}, {1, 1}}}),
               std::invalid_argument);
}

TEST(Mobility, MaxSpeedContracts) {
  StationaryMobility fixed({1, 1});
  EXPECT_EQ(fixed.max_speed(), 0.0);

  RandomDirectionMobility dir({10, 10}, Field{300, 300}, common::Rng(1));
  EXPECT_EQ(dir.max_speed(), kMaxSpeedMps);
  RandomWaypointMobility::Params wp_params;
  wp_params.field = Field{300, 300};
  RandomWaypointMobility way({10, 10}, wp_params, common::Rng(1));
  EXPECT_EQ(way.max_speed(), kMaxSpeedMps);

  // 10 m in 2 s, then 30 m in 3 s: fastest segment is 10 m/s.
  WaypointMobility wp({{TimePoint{0}, {0, 0}},
                       {TimePoint{2000000}, {10, 0}},
                       {TimePoint{5000000}, {40, 0}}});
  EXPECT_DOUBLE_EQ(wp.max_speed(), 10.0);

  // Two waypoints at the same instant but different positions: a jump.
  WaypointMobility jump({{TimePoint{0}, {0, 0}}, {TimePoint{0}, {5, 0}}});
  EXPECT_TRUE(std::isinf(jump.max_speed()));
}

// position_at must be a pure function of t: querying out of order or
// repeatedly must agree with a fresh model queried in order. This is
// what lets the grid medium read past positions at delivery time.
template <typename Make>
void expect_query_order_independent(Make make) {
  auto a = make();
  auto b = make();
  const int64_t times_us[] = {90000000, 5000000, 90000000, 42000000,
                              0,        90000000, 17000000};
  for (int64_t t : times_us) {
    Vec2 pa = a->position_at(TimePoint{t});
    // b sees the times in sorted order via a fresh scan each time.
    Vec2 pb = b->position_at(TimePoint{t});
    EXPECT_EQ(pa, pb) << "t=" << t;
  }
  // Repeat a query after the model materialized far beyond it.
  auto c = make();
  Vec2 late_first = c->position_at(TimePoint{90000000});
  EXPECT_EQ(c->position_at(TimePoint{90000000}), late_first);
  EXPECT_EQ(c->position_at(TimePoint{5000000}),
            a->position_at(TimePoint{5000000}));
}

TEST(Mobility, RandomDirectionQueryOrderIndependent) {
  expect_query_order_independent([] {
    return std::make_unique<RandomDirectionMobility>(
        Vec2{100, 100}, Field{200, 200}, common::Rng(11));
  });
}

TEST(Mobility, RandomWaypointQueryOrderIndependent) {
  expect_query_order_independent([] {
    RandomWaypointMobility::Params p;
    p.field = Field{200, 200};
    return std::make_unique<RandomWaypointMobility>(Vec2{100, 100}, p,
                                                    common::Rng(11));
  });
}

class RandomWaypointField : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWaypointField, StaysInsideFieldAndRespectsSpeed) {
  RandomWaypointMobility::Params params;
  params.field = Field{250, 250};
  params.pause = Duration::seconds(1.5);
  RandomWaypointMobility m({125, 125}, params, common::Rng(GetParam()));
  Vec2 prev = m.position_at(TimePoint{0});
  for (int s = 1; s < 400; ++s) {
    Vec2 p = m.position_at(TimePoint{static_cast<int64_t>(s) * 1000000});
    EXPECT_GE(p.x, -1e-6);
    EXPECT_GE(p.y, -1e-6);
    EXPECT_LE(p.x, 250 + 1e-6);
    EXPECT_LE(p.y, 250 + 1e-6);
    // Displacement per second bounded by the max speed.
    EXPECT_LE(distance(prev, p), kMaxSpeedMps + 1e-6);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWaypointField,
                         ::testing::Values(1, 2, 3, 42, 99));

TEST(Mobility, RandomWaypointPausesAtTargets) {
  RandomWaypointMobility::Params params;
  params.field = Field{100, 100};
  params.pause = Duration::seconds(5.0);
  RandomWaypointMobility m({50, 50}, params, common::Rng(3));
  // With a 5 s pause after every leg, there must be 100 ms windows where
  // the node does not move at all; with max speed 10 m/s a moving node
  // covers ~1 m per window, so paused windows are exactly stationary.
  int stationary_windows = 0;
  Vec2 prev = m.position_at(TimePoint{0});
  for (int i = 1; i < 3000; ++i) {
    Vec2 p = m.position_at(TimePoint{static_cast<int64_t>(i) * 100000});
    if (p == prev) ++stationary_windows;
    prev = p;
  }
  EXPECT_GT(stationary_windows, 50);
}

TEST(Mobility, RandomWaypointRejectsBadParams) {
  RandomWaypointMobility::Params bad_pause;
  bad_pause.pause = Duration::seconds(-1.0);
  EXPECT_THROW(RandomWaypointMobility({0, 0}, bad_pause, common::Rng(1)),
               std::invalid_argument);
}

TEST(Mobility, GroupMembersTrackAnchorWithinField) {
  const Field field{300, 300};
  RandomWaypointMobility::Params ap;
  ap.field = field;
  auto anchor = std::make_shared<RandomWaypointMobility>(Vec2{150, 150}, ap,
                                                         common::Rng(7));
  GroupMobility member_a(anchor, {12, -8}, field);
  GroupMobility member_b(anchor, {-20, 15}, field);
  for (int s = 0; s < 300; s += 5) {
    TimePoint t{static_cast<int64_t>(s) * 1000000};
    Vec2 ap_pos = anchor->position_at(t);
    Vec2 a = member_a.position_at(t);
    Vec2 b = member_b.position_at(t);
    // Members are the clamped anchor + offset, so they stay in the field
    // and within the offset radius of the anchor.
    EXPECT_TRUE(field.contains(a));
    EXPECT_TRUE(field.contains(b));
    EXPECT_EQ(a, field.clamp(ap_pos + Vec2{12, -8}));
    EXPECT_LE(distance(a, ap_pos), std::hypot(12.0, 8.0) + 1e-9);
    EXPECT_LE(distance(a, b), std::hypot(32.0, 23.0) + 1e-9);
  }
  EXPECT_EQ(member_a.max_speed(), anchor->max_speed());
}

TEST(Mobility, GroupRejectsNullAnchor) {
  EXPECT_THROW(GroupMobility(nullptr, {0, 0}, Field{100, 100}),
               std::invalid_argument);
}

// --- medium fixture ---

struct MediumTest : ::testing::Test {
  Scheduler sched;
  StationaryMobility near_a{{0, 0}};
  StationaryMobility near_b{{10, 0}};
  StationaryMobility far_c{{500, 0}};

  Medium::Params params() {
    Medium::Params p;
    p.range_m = 50;
    p.loss_rate = 0.0;
    return p;
  }

  FramePtr frame(NodeId sender, size_t size = 100) {
    auto f = std::make_shared<Frame>();
    f->sender = sender;
    f->payload = common::Bytes(size, 0xaa);
    f->kind = "test";
    return f;
  }
};

TEST_F(MediumTest, DeliversWithinRange) {
  Medium medium(sched, params(), common::Rng(1));
  int received = 0;
  NodeId a = medium.add_node(&near_a, nullptr);
  medium.add_node(&near_b, [&](const FramePtr&, NodeId) { ++received; });
  medium.add_node(&far_c, [&](const FramePtr&, NodeId) { ADD_FAILURE(); });
  medium.transmit(frame(a));
  sched.run();
  EXPECT_EQ(received, 1);
}

TEST_F(MediumTest, SenderDoesNotHearItself) {
  Medium medium(sched, params(), common::Rng(1));
  int self_heard = 0;
  NodeId a = medium.add_node(&near_a, [&](const FramePtr&, NodeId) { ++self_heard; });
  medium.add_node(&near_b, nullptr);
  medium.transmit(frame(a));
  sched.run();
  EXPECT_EQ(self_heard, 0);
}

TEST_F(MediumTest, FullLossDropsEverything) {
  auto p = params();
  p.loss_rate = 1.0;
  Medium medium(sched, p, common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  medium.add_node(&near_b, [&](const FramePtr&, NodeId) { ADD_FAILURE(); });
  Medium::TxReport report;
  medium.transmit(frame(a), [&](const Medium::TxReport& r) { report = r; });
  sched.run();
  EXPECT_EQ(report.receivers, 1u);
  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(medium.stats().losses, 1u);
}

TEST_F(MediumTest, OverlappingTransmissionsCollide) {
  auto p = params();
  p.channel.capture_ratio = 0.0;  // disable capture: any overlap kills
  Medium medium(sched, p, common::Rng(1));
  StationaryMobility pos_b{{20, 0}};
  StationaryMobility pos_r{{10, 0}};
  NodeId a = medium.add_node(&near_a, nullptr);
  NodeId b = medium.add_node(&pos_b, nullptr);
  int received = 0;
  medium.add_node(&pos_r, [&](const FramePtr&, NodeId) { ++received; });
  // Both transmit at t=0: overlap at the receiver in the middle. The
  // senders also jam each other (each is a receiver of the other's
  // frame), so four (frame, receiver) pairs are corrupted in total.
  medium.transmit(frame(a, 1000));
  medium.transmit(frame(b, 1000));
  sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(medium.stats().collision_drops, 4u);
}

TEST_F(MediumTest, CaptureLetsCloserSenderWin) {
  auto p = params();
  p.channel.capture_ratio = 0.7;
  Medium medium(sched, p, common::Rng(1));
  StationaryMobility pos_far{{45, 0}};  // interferer much farther away
  StationaryMobility pos_r{{5, 0}};     // receiver next to A
  NodeId a = medium.add_node(&near_a, nullptr);
  NodeId b = medium.add_node(&pos_far, nullptr);
  int received = 0;
  medium.add_node(&pos_r, [&](const FramePtr& f, NodeId) {
    ++received;
    EXPECT_EQ(f->sender, 0u);  // A's frame captured
  });
  medium.transmit(frame(a, 1000));
  medium.transmit(frame(b, 1000));
  sched.run();
  EXPECT_EQ(received, 1);
  (void)b;
}

TEST_F(MediumTest, NonOverlappingDoNotCollide) {
  Medium medium(sched, params(), common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  int received = 0;
  medium.add_node(&near_b, [&](const FramePtr&, NodeId) { ++received; });
  medium.transmit(frame(a, 100));
  // Second transmission scheduled long after the first ends.
  sched.schedule(Duration::milliseconds(100),
                 [&] { medium.transmit(frame(a, 100)); });
  sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(medium.stats().collision_drops, 0u);
}

TEST_F(MediumTest, FrameDurationScalesWithSizeAndRate) {
  auto p = params();
  p.data_rate_bps = 1e6;
  Medium medium(sched, p, common::Rng(1));
  // 125 bytes on the air, MAC overhead included: 1000 bits at 1 Mbps.
  EXPECT_EQ(medium.frame_duration(125 - Medium::kFrameOverheadBytes).us, 1000);
}

TEST_F(MediumTest, BusyForReflectsActiveTransmissions) {
  Medium medium(sched, params(), common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  NodeId b = medium.add_node(&near_b, nullptr);
  NodeId c = medium.add_node(&far_c, nullptr);
  EXPECT_FALSE(medium.busy_for(b));
  medium.transmit(frame(a, 10000));
  EXPECT_TRUE(medium.busy_for(b));
  EXPECT_FALSE(medium.busy_for(c));  // out of range: hears nothing
  sched.run();
  EXPECT_FALSE(medium.busy_for(b));
}

TEST_F(MediumTest, NeighborsOf) {
  Medium medium(sched, params(), common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  NodeId b = medium.add_node(&near_b, nullptr);
  NodeId c = medium.add_node(&far_c, nullptr);
  auto neighbors = medium.neighbors_of(a);
  EXPECT_EQ(neighbors, std::vector<NodeId>{b});
  EXPECT_TRUE(medium.in_range(a, b));
  EXPECT_FALSE(medium.in_range(a, c));
}

TEST_F(MediumTest, TxByKindAccounting) {
  Medium medium(sched, params(), common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  medium.add_node(&near_b, nullptr);
  medium.transmit(frame(a));
  medium.transmit(frame(a));
  sched.run();
  EXPECT_EQ(medium.stats().transmissions, 2u);
  EXPECT_EQ(medium.stats().tx_by_kind.at("test"), 2u);
}

TEST_F(MediumTest, RadioDefersWhileChannelBusy) {
  Medium medium(sched, params(), common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  int received = 0;
  NodeId b = medium.add_node(&near_b, [&](const FramePtr&, NodeId) { ++received; });
  Radio radio_a(sched, medium, a, common::Rng(2));
  Radio radio_b(sched, medium, b, common::Rng(3));
  // Both radios asked to send large frames at t=0: CSMA should serialize
  // them rather than collide.
  radio_a.send(frame(a, 5000));
  radio_b.send(frame(b, 5000));
  sched.run();
  EXPECT_EQ(medium.stats().collision_drops, 0u);
  EXPECT_EQ(medium.stats().transmissions, 2u);
}

TEST_F(MediumTest, RadioQueuesFifo) {
  Medium medium(sched, params(), common::Rng(1));
  NodeId a = medium.add_node(&near_a, nullptr);
  std::vector<uint8_t> seen;
  medium.add_node(&near_b, [&](const FramePtr& f, NodeId) {
    seen.push_back(f->payload[0]);
  });
  Radio radio(sched, medium, a, common::Rng(2));
  for (uint8_t i = 0; i < 5; ++i) {
    auto f = std::make_shared<Frame>();
    f->sender = a;
    f->payload = common::Bytes{i};
    f->kind = "test";
    radio.send(std::move(f));
  }
  sched.run();
  EXPECT_EQ(seen, (std::vector<uint8_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace dapes::sim
