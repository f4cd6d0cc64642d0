/// @file
/// Node mobility models.
///
/// The paper's simulation uses 40 mobile nodes picking random directions in
/// [0, 2*pi) and random speeds in [2, 10] m/s inside a 300 m x 300 m field
/// (Fig. 7), plus 4 stationary repositories. The real-world scenarios of
/// Fig. 8 move peers along scripted paths; WaypointMobility reproduces
/// those. Positions are evaluated lazily from closed-form segment motion,
/// so mobility adds no scheduler events of its own.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/geometry.hpp"

namespace dapes::sim {

using common::Duration;
using common::TimePoint;

/// Speed bounds (m/s) both random mobility models draw each leg's speed
/// from, uniformly: the paper's Fig. 7 nodes move at 2-10 m/s.
inline constexpr double kMinSpeedMps = 2.0;
inline constexpr double kMaxSpeedMps = 10.0;  ///< see kMinSpeedMps

/// Interface: where is the node at simulated time t?
///
/// position_at must be a pure function of t (models may materialize
/// internal state lazily, but repeated or out-of-order queries for the
/// same t must return the same position).
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at simulated time @p t (pure in t; see class comment).
  virtual Vec2 position_at(TimePoint t) = 0;

  /// Conservative upper bound on the node's speed in m/s. The medium's
  /// spatial grid uses it to bound how far nodes can drift between
  /// rebuilds; the default (infinity) is always safe — it just forces a
  /// rebuild whenever the clock has advanced.
  virtual double max_speed() const {
    return std::numeric_limits<double>::infinity();
  }
};

/// Fixed position (repositories / stationary nodes).
class StationaryMobility final : public MobilityModel {
 public:
  /// Pin the node at @p pos forever.
  explicit StationaryMobility(Vec2 pos) : pos_(pos) {}
  Vec2 position_at(TimePoint) override { return pos_; }
  double max_speed() const override { return 0.0; }

 private:
  Vec2 pos_;
};

/// Random-direction model with boundary reflection.
///
/// The node repeatedly draws a direction uniform in [0, 2*pi), a speed
/// uniform in [kMinSpeedMps, kMaxSpeedMps], and a leg duration uniform
/// in [5 s, 20 s]; it reflects off field edges mid-leg. Legs are
/// materialized on demand up to the queried time.
class RandomDirectionMobility final : public MobilityModel {
 public:
  /// Start at @p start inside @p field; every later leg is drawn from
  /// @p rng.
  RandomDirectionMobility(Vec2 start, Field field, common::Rng rng);

  Vec2 position_at(TimePoint t) override;
  double max_speed() const override { return kMaxSpeedMps; }

 private:
  struct Leg {
    TimePoint start_time;
    TimePoint end_time;
    Vec2 start_pos;
    Vec2 velocity;  // m/s
  };

  void extend_to(TimePoint t);
  Leg make_leg(TimePoint start_time, Vec2 start_pos);
  static Vec2 move_with_reflection(Vec2 from, Vec2& velocity, double dt,
                                   const Field& field);

  Field field_;
  common::Rng rng_;
  std::vector<Leg> legs_;
};

/// Piecewise-linear scripted path: the node is at waypoint[i].pos at
/// waypoint[i].at and moves linearly between consecutive waypoints; it
/// holds the last position afterwards. Used for the Fig. 8 real-world
/// scenario reproductions.
class WaypointMobility final : public MobilityModel {
 public:
  /// One scripted (time, position) pair.
  struct Waypoint {
    TimePoint at;  ///< when the node is at pos
    Vec2 pos;      ///< where the node is at time `at`
  };

  /// Waypoints must be sorted by time and non-empty.
  explicit WaypointMobility(std::vector<Waypoint> waypoints);

  Vec2 position_at(TimePoint t) override;

  /// Fastest segment speed (infinity if two waypoints share a timestamp
  /// at different positions — an instantaneous jump).
  double max_speed() const override { return max_speed_; }

 private:
  std::vector<Waypoint> waypoints_;
  double max_speed_ = 0.0;
};

/// Random-waypoint model with pause time (the classic RWP used by the
/// large-scale scenario families): the node draws a destination uniform
/// in the field and a speed uniform in [kMinSpeedMps, kMaxSpeedMps],
/// travels there in a straight line, pauses, and repeats. Legs are
/// materialized on demand, like RandomDirectionMobility.
class RandomWaypointMobility final : public MobilityModel {
 public:
  /// Model parameters.
  struct Params {
    Field field{};            ///< field destinations are drawn in
    Duration pause = Duration::seconds(2.0);  ///< dwell at each target
  };

  /// Start at @p start; every later leg is drawn from @p rng.
  RandomWaypointMobility(Vec2 start, Params params, common::Rng rng);

  Vec2 position_at(TimePoint t) override;
  double max_speed() const override { return kMaxSpeedMps; }

 private:
  struct Leg {
    TimePoint start_time;   // departure from `from`
    TimePoint arrive_time;  // arrival at `to`
    TimePoint end_time;     // arrival + pause; next leg starts here
    Vec2 from;
    Vec2 to;
  };

  void extend_to(TimePoint t);
  Leg make_leg(TimePoint start_time, Vec2 from);

  Params params_;
  common::Rng rng_;
  std::vector<Leg> legs_;
};

/// Reference-point group mobility (convoy/cluster): every member of a
/// group shares one anchor trajectory (typically a RandomWaypointMobility)
/// and holds a fixed offset from it, clamped to the field. Clamping is a
/// projection onto the field box (1-Lipschitz), so a member never moves
/// faster than its anchor.
class GroupMobility final : public MobilityModel {
 public:
  /// Follow @p anchor at the fixed @p offset, clamped to @p field.
  GroupMobility(std::shared_ptr<MobilityModel> anchor, Vec2 offset,
                Field field);

  Vec2 position_at(TimePoint t) override;
  double max_speed() const override { return anchor_->max_speed(); }

 private:
  std::shared_ptr<MobilityModel> anchor_;
  Vec2 offset_;
  Field field_;
};

}  // namespace dapes::sim
