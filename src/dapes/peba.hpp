/// @file
/// Data advertisement prioritization & collision mitigation (paper §IV-F).
///
/// Bitmap transmissions during an encounter are prioritized: the first goes
/// to the peer with most of the data; each subsequent transmission is
/// prioritized by how many packets the peer holds that are missing from
/// every previously transmitted bitmap. Linear prioritization alone (divide
/// a default transmission window by the held fraction) collides whenever
/// peers hold similar amounts, so PEBA — Priority-based Exponential Backoff
/// Algorithm — splits colliding peers into priority groups over
/// exponentially grown slot counts: peers holding at least half of the
/// still-missing packets pick a random slot in the first group, the rest in
/// the second.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace dapes::core {

using common::Duration;

/// Computes PEBA transmission delays: linear prioritization first, then
/// priority-grouped exponential backoff after detected collisions. Pure
/// functions of the paper's parameters below.
class PebaScheduler {
 public:
  /// Default transmission window W (paper evaluation: 20 ms).
  static constexpr Duration kWindow = Duration::milliseconds(20);
  /// Duration of one backoff slot (tau in the paper's analysis).
  static constexpr Duration kSlot = Duration::milliseconds(5);
  /// Number of priority groups (the paper's example uses 2).
  static constexpr int kGroups = 2;
  /// Cap on the doubling (slots never exceed 2^kMaxRounds).
  static constexpr int kMaxRounds = 6;

  /// Linear prioritization delay before any collision: the transmission
  /// window divided by the fraction of still-missing packets this peer
  /// can provide (paper: "dividing a default transmission window by the
  /// percent of the packets they have that are missing from previously
  /// transmitted bitmaps"). fraction=1 -> W; fraction->0 -> capped at
  /// max_delay(). For the first bitmap of an encounter the fraction is
  /// the peer's completeness (most data goes first).
  static Duration priority_delay(double fraction);

  /// Ceiling for priority_delay (keeps zero-fraction peers schedulable).
  static Duration max_delay();

  /// Slot-based delay after @p collision_round consecutive collisions
  /// (round 1 = first detected collision -> 2 slots, round 2 -> 4, ...).
  /// Peers providing at least 1/groups-quantile of the missing packets
  /// land in earlier groups; slot within the group is uniform.
  static Duration backoff_delay(int collision_round, double fraction,
                                common::Rng& rng);

  /// Total slots after @p collision_round collisions (2^round, capped).
  static int slots_for_round(int collision_round);

  /// Group index (0-based) a peer with @p fraction of the missing packets
  /// belongs to; fraction >= 0.5 with 2 groups -> group 0.
  static int group_for_fraction(double fraction);
};

}  // namespace dapes::core
