#include "dapes/peba.hpp"

#include <algorithm>
#include <cmath>

namespace dapes::core {

Duration PebaScheduler::max_delay() {
  // fraction below 1/50 saturates: the peer has essentially nothing new.
  return Duration{kWindow.us * 50};
}

Duration PebaScheduler::priority_delay(double fraction) {
  if (fraction >= 1.0) return kWindow;
  if (fraction <= 0.0) return max_delay();
  double delay_us = static_cast<double>(kWindow.us) / fraction;
  return Duration{std::min<int64_t>(static_cast<int64_t>(delay_us),
                                    max_delay().us)};
}

int PebaScheduler::slots_for_round(int collision_round) {
  int round = std::clamp(collision_round, 1, kMaxRounds);
  return 1 << round;  // 2, 4, 8, ...
}

int PebaScheduler::group_for_fraction(double fraction) {
  // With g groups, group j covers fractions in [(g-1-j)/g, (g-j)/g):
  // providing more lands you earlier, and exactly "half" still counts as
  // the first of two groups (paper: "peers that have, at least, half of
  // the missing packets randomly select a slot in the first group").
  double clamped = std::clamp(fraction, 0.0, 1.0);
  int group = static_cast<int>(std::ceil((1.0 - clamped) * kGroups)) - 1;
  return std::clamp(group, 0, kGroups - 1);
}

Duration PebaScheduler::backoff_delay(int collision_round, double fraction,
                                      common::Rng& rng) {
  const int total_slots = slots_for_round(collision_round);
  const int per_group = std::max(1, total_slots / kGroups);
  const int group = group_for_fraction(fraction);
  const int base = group * per_group;
  const int slot =
      base + static_cast<int>(rng.next_below(static_cast<uint64_t>(per_group)));
  return kSlot * slot;
}

}  // namespace dapes::core
