// Property tests: the spatial-grid medium is observably *identical* to
// the retained brute-force reference.
//
// Each case builds the same randomized world twice — same node count,
// field, range, loss, capture, mobility mix (stationary / random
// direction / random waypoint / group convoys), same per-node RNG streams
// and the same scripted event list — once with the grid (the default) and
// once with Params::brute_force. Every observable is then compared:
// per-frame receiver sets and delivery order, TxReports, neighbor sets,
// carrier-sense answers, and the aggregate MediumStats. Any divergence in
// pruning, iteration order, or RNG draw order shows up as a log mismatch.
//
// The world construction is shared with the channel-layer suite
// (tests/medium_test_world.hpp), whose golden-hash test additionally pins
// these exact worlds to their pre-channel-layer behavior.
//
// The grid side rests on DenseCellGrid, the medium's only spatial index,
// so it gets its own property test: every query visits a superset of
// the exact disc, each entry at most once, for any geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "medium_test_world.hpp"
#include "sim/geometry.hpp"
#include "sim/spatial_grid.hpp"

namespace dapes::sim {
namespace {

using testworld::World;
using testworld::build_world;

class MediumEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MediumEquivalence, GridMatchesBruteForceExactly) {
  World grid, brute;
  build_world(grid, GetParam(), /*brute=*/false);
  build_world(brute, GetParam(), /*brute=*/true);
  grid.sched.run();
  brute.sched.run();

  ASSERT_EQ(grid.log.size(), brute.log.size());
  for (size_t i = 0; i < grid.log.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(grid.log[i], brute.log[i]);
  }

  const MediumStats& g = grid.medium->stats();
  const MediumStats& b = brute.medium->stats();
  EXPECT_EQ(g.transmissions, b.transmissions);
  EXPECT_EQ(g.deliveries, b.deliveries);
  EXPECT_EQ(g.losses, b.losses);
  EXPECT_EQ(g.collision_drops, b.collision_drops);
  EXPECT_EQ(g.collided_frames, b.collided_frames);
  EXPECT_EQ(g.bytes_sent, b.bytes_sent);
  EXPECT_EQ(g.tx_by_kind, b.tx_by_kind);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// DenseCellGrid: candidates are a superset of the exact disc.
// ---------------------------------------------------------------------

/// Query @p grid (built over @p points) and check the candidate
/// contract: every point within @p radius of @p center is visited, no
/// entry is visited twice, and every visited id names a built entry.
void expect_superset(const DenseCellGrid& grid,
                     const std::vector<Vec2>& points, Vec2 center,
                     double radius) {
  std::vector<int> visits(points.size(), 0);
  grid.for_each_candidate(center, radius, [&](uint32_t id, Vec2 pos) {
    ASSERT_LT(id, points.size());
    EXPECT_EQ(pos, points[id]);
    ++visits[id];
  });
  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_LE(visits[i], 1);
    if (within_range(center, points[i], radius)) {
      EXPECT_EQ(visits[i], 1);
    }
  }
}

/// Cells the grid spans over @p points at its effective cell size
/// (mirrors the build's bounding-box arithmetic).
size_t cell_count(const DenseCellGrid& grid, const std::vector<Vec2>& points) {
  Vec2 lo = points[0];
  Vec2 hi = points[0];
  for (const Vec2& p : points) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const double cell = grid.cell_size();
  return static_cast<size_t>((hi.x - lo.x) / cell + 1) *
         static_cast<size_t>((hi.y - lo.y) / cell + 1);
}

class DenseCellGridProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseCellGridProperty, CandidatesCoverExactDisc) {
  common::Rng rng(common::derive_seed(GetParam(), 0x67726964ULL));
  // One grid rebuilt for every case, as the medium rebuilds its own.
  DenseCellGrid grid;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    // Points around a random origin that may be negative, with some
    // exact duplicates.
    const size_t n = 1 + rng.next_below(150);
    const Vec2 origin{rng.uniform(-1000.0, 1000.0),
                      rng.uniform(-1000.0, 1000.0)};
    const double span = rng.uniform(1.0, 600.0);
    std::vector<Vec2> points;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.chance(0.15)) {
        points.push_back(points[rng.next_below(i)]);
      } else {
        points.push_back(origin + Vec2{rng.uniform(0.0, span),
                                       rng.uniform(0.0, span)});
      }
    }
    // A far outlier forces the bounded-memory cell enlargement.
    const bool outlier = rng.chance(0.3);
    if (outlier) points.push_back(origin + Vec2{1e6, -1e6});
    const double hint = rng.uniform(1.0, 120.0);
    grid.build(points, hint);

    ASSERT_EQ(grid.size(), points.size());
    EXPECT_GE(grid.cell_size(), hint);
    EXPECT_LE(cell_count(grid, points), 4 * points.size() + 64);
    if (outlier) {
      EXPECT_GT(grid.cell_size(), hint);
    }

    for (int q = 0; q < 40; ++q) {
      const Vec2 center =
          rng.chance(0.5)
              ? points[rng.next_below(points.size())]
              : origin + Vec2{rng.uniform(-0.5 * span, 1.5 * span),
                              rng.uniform(-0.5 * span, 1.5 * span)};
      expect_superset(grid, points, center, rng.uniform(0.0, 2.0 * hint));
    }
    // Radius 0 at an entry still finds it (the predicate is inclusive).
    expect_superset(grid, points, points[0], 0.0);
    // A radius wider than the field visits every entry exactly once.
    expect_superset(grid, points, origin, 4e6);
  }

  grid.build({}, 25.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_EQ(grid.cell_size(), 25.0);
  int visited = 0;
  grid.for_each_candidate(Vec2{}, 1e9, [&](uint32_t, Vec2) { ++visited; });
  EXPECT_EQ(visited, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseCellGridProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dapes::sim
