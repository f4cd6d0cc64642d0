// Unit tests for advertisement prioritization and PEBA (paper §IV-F).
#include <gtest/gtest.h>

#include "dapes/peba.hpp"

namespace dapes::core {
namespace {

TEST(Peba, PriorityDelayDecreasesWithFraction) {
  PebaScheduler peba;
  // More to offer => earlier timer (the paper's A-goes-first rule).
  EXPECT_LT(peba.priority_delay(1.0), peba.priority_delay(0.5));
  EXPECT_LT(peba.priority_delay(0.5), peba.priority_delay(0.25));
  EXPECT_LT(peba.priority_delay(0.25), peba.priority_delay(0.05));
}

TEST(Peba, PriorityDelayAtFullFractionIsWindow) {
  PebaScheduler peba;
  EXPECT_EQ(peba.priority_delay(1.0), PebaScheduler::kWindow);
}

TEST(Peba, PriorityDelayIsWindowDividedByFraction) {
  PebaScheduler peba;
  // The paper's rule: window / percent.
  EXPECT_EQ(peba.priority_delay(0.5).us, PebaScheduler::kWindow.us * 2);
  EXPECT_EQ(peba.priority_delay(0.25).us, PebaScheduler::kWindow.us * 4);
}

TEST(Peba, ZeroFractionCapped) {
  PebaScheduler peba;
  EXPECT_EQ(peba.priority_delay(0.0), peba.max_delay());
  EXPECT_LE(peba.priority_delay(0.001).us, peba.max_delay().us);
}

TEST(Peba, SlotsDoublePerRound) {
  PebaScheduler peba;
  EXPECT_EQ(peba.slots_for_round(1), 2);
  EXPECT_EQ(peba.slots_for_round(2), 4);
  EXPECT_EQ(peba.slots_for_round(3), 8);
}

TEST(Peba, SlotsCappedAtMaxRounds) {
  PebaScheduler peba;
  ASSERT_EQ(PebaScheduler::kMaxRounds, 6);
  EXPECT_EQ(peba.slots_for_round(6), 64);
  EXPECT_EQ(peba.slots_for_round(9), 64);
  EXPECT_EQ(peba.slots_for_round(0), 2);  // clamped low as well
}

TEST(Peba, GroupAssignmentTwoGroups) {
  PebaScheduler peba;
  // >= half of the missing packets -> first group (paper example).
  EXPECT_EQ(peba.group_for_fraction(1.0), 0);
  EXPECT_EQ(peba.group_for_fraction(0.6), 0);
  EXPECT_EQ(peba.group_for_fraction(0.5), 0);
  EXPECT_EQ(peba.group_for_fraction(0.4), 1);
  EXPECT_EQ(peba.group_for_fraction(0.0), 1);
}

TEST(Peba, GroupAssignmentClampsOutOfRangeFractions) {
  PebaScheduler peba;
  ASSERT_EQ(PebaScheduler::kGroups, 2);
  EXPECT_EQ(peba.group_for_fraction(1.5), 0);
  EXPECT_EQ(peba.group_for_fraction(0.51), 0);
  EXPECT_EQ(peba.group_for_fraction(0.49), 1);
  EXPECT_EQ(peba.group_for_fraction(-0.3), 1);
}

TEST(Peba, BackoffHighFractionEarlierSlots) {
  PebaScheduler peba;
  common::Rng rng(3);
  // Round 2: 4 slots, 2 per group. Group 0 slots {0,1}, group 1 {2,3}.
  for (int i = 0; i < 50; ++i) {
    common::Duration high = peba.backoff_delay(2, 0.9, rng);
    common::Duration low = peba.backoff_delay(2, 0.1, rng);
    int high_slot = static_cast<int>(high.us / PebaScheduler::kSlot.us);
    int low_slot = static_cast<int>(low.us / PebaScheduler::kSlot.us);
    EXPECT_LT(high_slot, 2);
    EXPECT_GE(low_slot, 2);
    EXPECT_LT(low_slot, 4);
  }
}

TEST(Peba, BackoffWithinTotalSlotRange) {
  PebaScheduler peba;
  common::Rng rng(5);
  for (int round = 1; round <= 6; ++round) {
    for (int i = 0; i < 100; ++i) {
      double fraction = rng.uniform01();
      common::Duration d = peba.backoff_delay(round, fraction, rng);
      EXPECT_GE(d.us, 0);
      EXPECT_LT(d.us, PebaScheduler::kSlot.us * peba.slots_for_round(round));
    }
  }
}

TEST(Peba, BackoffSpreadsWithinGroup) {
  // With enough slots, same-group peers should not always pick the same
  // slot (the collision-resolution property).
  PebaScheduler peba;
  common::Rng rng(7);
  std::set<int64_t> delays;
  for (int i = 0; i < 64; ++i) {
    delays.insert(peba.backoff_delay(4, 0.9, rng).us);  // 16 slots, 8/group
  }
  EXPECT_GT(delays.size(), 3u);
}

TEST(Peba, PaperExampleRoundOne) {
  // Fig. 5: six packets missing from A's bitmap; C has three (fraction
  // 0.5 -> group 0), B has two and D one (fractions < 0.5 -> group 1).
  PebaScheduler peba;
  EXPECT_EQ(peba.group_for_fraction(3.0 / 6.0), 0);  // C
  EXPECT_EQ(peba.group_for_fraction(2.0 / 6.0), 1);  // B
  EXPECT_EQ(peba.group_for_fraction(1.0 / 6.0), 1);  // D
}

}  // namespace
}  // namespace dapes::core
