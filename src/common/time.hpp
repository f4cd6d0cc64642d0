// Simulation time.
//
// All simulated time is kept as an integer count of microseconds so that
// event ordering is exact and runs are bit-reproducible; doubles only
// appear at the presentation boundary.
#pragma once

#include <cstdint>

namespace dapes::common {

/// Relative duration, microsecond resolution.
struct Duration {
  int64_t us = 0;

  static constexpr Duration microseconds(int64_t v) { return Duration{v}; }
  static constexpr Duration milliseconds(int64_t v) { return Duration{v * 1000}; }
  static constexpr Duration seconds(double v) {
    return Duration{static_cast<int64_t>(v * 1e6)};
  }

  constexpr double to_seconds() const { return static_cast<double>(us) / 1e6; }
  constexpr double to_milliseconds() const { return static_cast<double>(us) / 1e3; }

  constexpr bool operator==(const Duration&) const = default;
  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration o) const { return Duration{us + o.us}; }
  constexpr Duration operator-(Duration o) const { return Duration{us - o.us}; }
  constexpr Duration operator*(int64_t k) const { return Duration{us * k}; }
  constexpr Duration operator/(int64_t k) const { return Duration{us / k}; }
};

/// Absolute simulation time (microseconds since run start).
struct TimePoint {
  int64_t us = 0;

  static constexpr TimePoint zero() { return TimePoint{0}; }

  constexpr double to_seconds() const { return static_cast<double>(us) / 1e6; }

  constexpr bool operator==(const TimePoint&) const = default;
  constexpr auto operator<=>(const TimePoint&) const = default;

  constexpr TimePoint operator+(Duration d) const { return TimePoint{us + d.us}; }
  constexpr TimePoint operator-(Duration d) const { return TimePoint{us - d.us}; }
  constexpr Duration operator-(TimePoint o) const { return Duration{us - o.us}; }
};

}  // namespace dapes::common
