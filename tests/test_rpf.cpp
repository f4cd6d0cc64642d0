// Unit tests for the RPF fetch strategies (paper §IV-E).
#include <gtest/gtest.h>

#include "dapes/rpf.hpp"

namespace dapes::core {
namespace {

using common::TimePoint;

Bitmap bits(size_t n, std::initializer_list<size_t> set) {
  Bitmap bm(n);
  for (size_t i : set) bm.set(i);
  return bm;
}

RpfOptions options(size_t total, bool random_start = false) {
  RpfOptions o;
  o.total_packets = total;
  o.random_start = random_start;
  o.seed = 7;
  return o;
}

TEST(RankPackets, RarestFirstAmongAvailable) {
  // have_counts: packet 0 held by 3, packet 1 by 1, packet 2 by 2,
  // packet 3 by nobody.
  std::vector<uint32_t> counts = {3, 1, 2, 0};
  std::vector<size_t> order = {0, 1, 2, 3};
  auto ranked = rank_packets(counts, order);
  EXPECT_EQ(ranked, (std::vector<size_t>{1, 2, 0, 3}));
}

TEST(RankPackets, TieBreakFollowsOrder) {
  std::vector<uint32_t> counts = {1, 1, 1};
  std::vector<size_t> order = {2, 0, 1};
  auto ranked = rank_packets(counts, order);
  EXPECT_EQ(ranked, (std::vector<size_t>{2, 0, 1}));
}

TEST(LocalRpf, SelectsRarestAvailable) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(4));
  // Neighbor A has {0,1,2}, B has {0}. Rarity: 1 held-by-2, 1,2 held-by-1.
  rpf->on_bitmap("A", bits(4, {0, 1, 2}), TimePoint{0});
  rpf->on_bitmap("B", bits(4, {0}), TimePoint{0});
  Bitmap own(4);
  std::set<size_t> in_flight;
  auto pick = rpf->select_next(own, in_flight);
  ASSERT_TRUE(pick.has_value());
  // Packets 1 and 2 are rarest (1 holder each); tie-break sequential -> 1.
  EXPECT_EQ(*pick, 1u);
}

TEST(LocalRpf, SkipsOwnedAndInFlight) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(4));
  rpf->on_bitmap("A", bits(4, {0, 1, 2, 3}), TimePoint{0});
  Bitmap own = bits(4, {0});
  std::set<size_t> in_flight = {1};
  auto pick = rpf->select_next(own, in_flight);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
}

TEST(LocalRpf, NothingLeftReturnsNullopt) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(2));
  Bitmap own = bits(2, {0, 1});
  std::set<size_t> in_flight;
  EXPECT_FALSE(rpf->select_next(own, in_flight).has_value());
}

TEST(LocalRpf, NeighborLossDropsState) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(4));
  rpf->on_bitmap("A", bits(4, {2}), TimePoint{0});
  EXPECT_TRUE(rpf->known_available(2));
  rpf->on_neighbor_lost("A");
  EXPECT_FALSE(rpf->known_available(2));
  EXPECT_EQ(rpf->known_bitmaps(), 0u);
}

TEST(LocalRpf, RebitmapReplacesOldState) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(4));
  rpf->on_bitmap("A", bits(4, {0}), TimePoint{0});
  rpf->on_bitmap("A", bits(4, {1}), TimePoint{1});
  EXPECT_FALSE(rpf->known_available(0));
  EXPECT_TRUE(rpf->known_available(1));
  EXPECT_EQ(rpf->known_bitmaps(), 1u);
}

TEST(LocalRpf, ExpiryDropsOlderBitmaps) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(4));
  rpf->on_bitmap("A", bits(4, {0}), TimePoint{10});
  rpf->on_bitmap("B", bits(4, {1}), TimePoint{20});
  rpf->expire_older_than(TimePoint{20});  // strictly older goes
  EXPECT_EQ(rpf->known_bitmaps(), 1u);
  EXPECT_FALSE(rpf->known_available(0));
  EXPECT_TRUE(rpf->known_available(1));
}

TEST(EncounterRpf, ExpiryKeepsHistory) {
  auto rpf = make_fetch_strategy(RpfKind::kEncounterBased, options(4));
  rpf->on_bitmap("A", bits(4, {0}), TimePoint{10});
  rpf->expire_older_than(TimePoint{20});
  EXPECT_EQ(rpf->known_bitmaps(), 1u);
  EXPECT_TRUE(rpf->known_available(0));
}

TEST(EncounterRpf, KeepsHistoryAfterNeighborLoss) {
  auto rpf = make_fetch_strategy(RpfKind::kEncounterBased, options(4));
  rpf->on_bitmap("A", bits(4, {2}), TimePoint{0});
  rpf->on_neighbor_lost("A");
  EXPECT_TRUE(rpf->known_available(2));
  EXPECT_EQ(rpf->known_bitmaps(), 1u);
}

TEST(EncounterRpf, HistoryEviction) {
  RpfOptions o = options(4);
  o.history_limit = 2;
  auto rpf = make_fetch_strategy(RpfKind::kEncounterBased, o);
  rpf->on_bitmap("A", bits(4, {0}), TimePoint{0});
  rpf->on_bitmap("B", bits(4, {1}), TimePoint{1});
  rpf->on_bitmap("C", bits(4, {2}), TimePoint{2});
  // A evicted (oldest); B and C remain.
  EXPECT_FALSE(rpf->known_available(0));
  EXPECT_TRUE(rpf->known_available(1));
  EXPECT_TRUE(rpf->known_available(2));
  EXPECT_EQ(rpf->known_bitmaps(), 2u);
}

TEST(EncounterRpf, UpdateDoesNotEvict) {
  RpfOptions o = options(4);
  o.history_limit = 2;
  auto rpf = make_fetch_strategy(RpfKind::kEncounterBased, o);
  rpf->on_bitmap("A", bits(4, {0}), TimePoint{0});
  rpf->on_bitmap("B", bits(4, {1}), TimePoint{1});
  rpf->on_bitmap("A", bits(4, {3}), TimePoint{2});  // update, not insert
  EXPECT_TRUE(rpf->known_available(1));
  EXPECT_TRUE(rpf->known_available(3));
  EXPECT_FALSE(rpf->known_available(0));
}

TEST(Rpf, SameStartIsSequentialWithoutKnowledge) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood,
                                 options(8, /*random_start=*/false));
  Bitmap own(8);
  std::set<size_t> in_flight;
  EXPECT_EQ(rpf->select_next(own, in_flight), 0u);
}

TEST(Rpf, RandomStartPermutesOrder) {
  // With no bitmaps and random start, first pick is (very likely) not 0
  // for some seed; and two strategies with different seeds disagree.
  RpfOptions a = options(1000, true);
  a.seed = 1;
  RpfOptions b = options(1000, true);
  b.seed = 2;
  auto ra = make_fetch_strategy(RpfKind::kLocalNeighborhood, a);
  auto rb = make_fetch_strategy(RpfKind::kLocalNeighborhood, b);
  Bitmap own(1000);
  std::set<size_t> in_flight;
  auto pa = ra->select_next(own, in_flight);
  auto pb = rb->select_next(own, in_flight);
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(*pa, *pb);
}

TEST(Rpf, EmptyCollection) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(0));
  Bitmap own(0);
  std::set<size_t> in_flight;
  EXPECT_FALSE(rpf->select_next(own, in_flight).has_value());
}

class RpfBothKinds : public ::testing::TestWithParam<RpfKind> {};

TEST_P(RpfBothKinds, DrainsEntireCollection) {
  // Property: repeatedly selecting + acquiring covers every packet
  // exactly once.
  auto rpf = make_fetch_strategy(GetParam(), options(64, true));
  rpf->on_bitmap("A", bits(64, {1, 5, 9, 33}), TimePoint{0});
  Bitmap own(64);
  std::set<size_t> in_flight;
  std::set<size_t> seen;
  while (auto pick = rpf->select_next(own, in_flight)) {
    EXPECT_TRUE(seen.insert(*pick).second) << "duplicate " << *pick;
    own.set(*pick);
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST_P(RpfBothKinds, AvailablePacketsSelectedBeforeUnknown) {
  auto rpf = make_fetch_strategy(GetParam(), options(16));
  rpf->on_bitmap("A", bits(16, {10, 12}), TimePoint{0});
  Bitmap own(16);
  std::set<size_t> in_flight;
  auto first = rpf->select_next(own, in_flight);
  auto second_own = own;
  second_own.set(*first);
  auto second = rpf->select_next(second_own, in_flight);
  std::set<size_t> firsts = {*first, *second};
  EXPECT_EQ(firsts, (std::set<size_t>{10, 12}));
}

TEST_P(RpfBothKinds, FetchFailureDemotesTheClaim) {
  auto rpf = make_fetch_strategy(GetParam(), options(8));
  rpf->on_bitmap("A", bits(8, {2, 5}), TimePoint{0});
  rpf->on_bitmap("B", bits(8, {2, 5}), TimePoint{0});
  Bitmap own(8);
  std::set<size_t> in_flight;
  EXPECT_EQ(rpf->select_next(own, in_flight), 2u);  // tie: sequential

  // The claim on 2 proved wrong: every stored bitmap drops it, so the
  // plan moves on to 5, and the bitmaps themselves stay.
  rpf->on_fetch_failed(2);
  EXPECT_FALSE(rpf->known_available(2));
  EXPECT_TRUE(rpf->known_available(5));
  EXPECT_EQ(rpf->select_next(own, in_flight), 5u);
  EXPECT_EQ(rpf->known_bitmaps(), 2u);
  rpf->on_fetch_failed(99);  // beyond the collection: ignored

  // A fresh advertisement restores the claim with consistent counts:
  // 2 has one holder again, 5 still two, so 2 is the rarest.
  rpf->on_bitmap("A", bits(8, {2, 5}), TimePoint{1});
  EXPECT_TRUE(rpf->known_available(2));
  EXPECT_EQ(rpf->select_next(own, in_flight), 2u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, RpfBothKinds,
                         ::testing::Values(RpfKind::kLocalNeighborhood,
                                           RpfKind::kEncounterBased));

TEST(Rpf, StateBytesNonzeroWithNeighbors) {
  auto rpf = make_fetch_strategy(RpfKind::kLocalNeighborhood, options(128));
  size_t before = rpf->state_bytes();
  rpf->on_bitmap("A", bits(128, {0}), TimePoint{0});
  EXPECT_GT(rpf->state_bytes(), before);
}

}  // namespace
}  // namespace dapes::core
