#include "sim/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace dapes::sim {

namespace {

/// Leg duration bounds of the random-direction model (paper Fig. 7).
constexpr Duration kLegMin = Duration::seconds(5.0);
constexpr Duration kLegMax = Duration::seconds(20.0);

}  // namespace

RandomDirectionMobility::RandomDirectionMobility(Vec2 start, Field field,
                                                 common::Rng rng)
    : field_(field), rng_(rng) {
  legs_.push_back(make_leg(TimePoint::zero(), field_.clamp(start)));
}

RandomDirectionMobility::Leg RandomDirectionMobility::make_leg(
    TimePoint start_time, Vec2 start_pos) {
  double angle = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  double speed = rng_.uniform(kMinSpeedMps, kMaxSpeedMps);
  double leg_seconds =
      rng_.uniform(kLegMin.to_seconds(), kLegMax.to_seconds());
  Leg leg;
  leg.start_time = start_time;
  leg.end_time = start_time + Duration::seconds(leg_seconds);
  leg.start_pos = start_pos;
  leg.velocity = Vec2{speed * std::cos(angle), speed * std::sin(angle)};
  return leg;
}

Vec2 RandomDirectionMobility::move_with_reflection(Vec2 from, Vec2& velocity,
                                                   double dt,
                                                   const Field& field) {
  // Advance in sub-steps, reflecting the velocity component that crosses a
  // boundary. A leg is at most tens of seconds so the loop runs a handful
  // of iterations in the worst case.
  Vec2 pos = from;
  double remaining = dt;
  for (int guard = 0; guard < 64 && remaining > 1e-12; ++guard) {
    Vec2 target = pos + velocity * remaining;
    if (field.contains(target)) {
      return target;
    }
    // Find the earliest boundary-crossing time.
    double t_hit = remaining;
    if (velocity.x < 0) t_hit = std::min(t_hit, -pos.x / velocity.x);
    if (velocity.x > 0) t_hit = std::min(t_hit, (field.width - pos.x) / velocity.x);
    if (velocity.y < 0) t_hit = std::min(t_hit, -pos.y / velocity.y);
    if (velocity.y > 0) t_hit = std::min(t_hit, (field.height - pos.y) / velocity.y);
    if (t_hit < 0) t_hit = 0;
    pos = field.clamp(pos + velocity * t_hit);
    remaining -= t_hit;
    // Reflect whichever components sit on a wall and point outward.
    const double eps = 1e-9;
    if ((pos.x <= eps && velocity.x < 0) ||
        (pos.x >= field.width - eps && velocity.x > 0)) {
      velocity.x = -velocity.x;
    }
    if ((pos.y <= eps && velocity.y < 0) ||
        (pos.y >= field.height - eps && velocity.y > 0)) {
      velocity.y = -velocity.y;
    }
  }
  return field.clamp(pos);
}

void RandomDirectionMobility::extend_to(TimePoint t) {
  while (legs_.back().end_time < t) {
    const Leg& last = legs_.back();
    Vec2 vel = last.velocity;
    double dt = (last.end_time - last.start_time).to_seconds();
    Vec2 end_pos =
        move_with_reflection(last.start_pos, vel, dt, field_);
    legs_.push_back(make_leg(last.end_time, end_pos));
  }
}

Vec2 RandomDirectionMobility::position_at(TimePoint t) {
  if (t < legs_.front().start_time) t = legs_.front().start_time;
  extend_to(t);
  // The queried time is almost always in the last leg or near it; scan
  // backwards.
  for (size_t i = legs_.size(); i-- > 0;) {
    const Leg& leg = legs_[i];
    if (t >= leg.start_time) {
      Vec2 vel = leg.velocity;
      double dt = (t - leg.start_time).to_seconds();
      return move_with_reflection(leg.start_pos, vel, dt, field_);
    }
  }
  return legs_.front().start_pos;
}

WaypointMobility::WaypointMobility(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
  if (waypoints_.empty()) {
    throw std::invalid_argument("WaypointMobility: empty waypoint list");
  }
  for (size_t i = 1; i < waypoints_.size(); ++i) {
    if (waypoints_[i].at < waypoints_[i - 1].at) {
      throw std::invalid_argument("WaypointMobility: unsorted waypoints");
    }
    double span = (waypoints_[i].at - waypoints_[i - 1].at).to_seconds();
    double dist = distance(waypoints_[i].pos, waypoints_[i - 1].pos);
    if (dist <= 0.0) continue;
    max_speed_ = span > 0.0
                     ? std::max(max_speed_, dist / span)
                     : std::numeric_limits<double>::infinity();
  }
}

Vec2 WaypointMobility::position_at(TimePoint t) {
  if (t <= waypoints_.front().at) return waypoints_.front().pos;
  if (t >= waypoints_.back().at) return waypoints_.back().pos;
  for (size_t i = 1; i < waypoints_.size(); ++i) {
    if (t <= waypoints_[i].at) {
      const Waypoint& a = waypoints_[i - 1];
      const Waypoint& b = waypoints_[i];
      double span = (b.at - a.at).to_seconds();
      if (span <= 0) return b.pos;
      double frac = (t - a.at).to_seconds() / span;
      return a.pos + (b.pos - a.pos) * frac;
    }
  }
  return waypoints_.back().pos;
}

RandomWaypointMobility::RandomWaypointMobility(Vec2 start, Params params,
                                               common::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.pause.us < 0) {
    throw std::invalid_argument("RandomWaypointMobility: negative pause");
  }
  legs_.push_back(make_leg(TimePoint::zero(), params_.field.clamp(start)));
}

RandomWaypointMobility::Leg RandomWaypointMobility::make_leg(
    TimePoint start_time, Vec2 from) {
  Vec2 dest{rng_.uniform(0.0, params_.field.width),
            rng_.uniform(0.0, params_.field.height)};
  double speed = rng_.uniform(kMinSpeedMps, kMaxSpeedMps);
  Leg leg;
  leg.start_time = start_time;
  leg.arrive_time =
      start_time + Duration::seconds(distance(from, dest) / speed);
  leg.end_time = leg.arrive_time + params_.pause;
  // Zero-length pauses on a zero-length trip would stall extend_to; give
  // every leg a strictly positive span.
  if (leg.end_time <= leg.start_time) {
    leg.end_time = leg.start_time + Duration::microseconds(1);
  }
  leg.from = from;
  leg.to = dest;
  return leg;
}

void RandomWaypointMobility::extend_to(TimePoint t) {
  while (legs_.back().end_time < t) {
    const Leg& last = legs_.back();
    legs_.push_back(make_leg(last.end_time, last.to));
  }
}

Vec2 RandomWaypointMobility::position_at(TimePoint t) {
  if (t < legs_.front().start_time) t = legs_.front().start_time;
  extend_to(t);
  for (size_t i = legs_.size(); i-- > 0;) {
    const Leg& leg = legs_[i];
    if (t >= leg.start_time) {
      if (t >= leg.arrive_time) return leg.to;  // travelling done: pausing
      double span = (leg.arrive_time - leg.start_time).to_seconds();
      if (span <= 0.0) return leg.to;
      double frac = (t - leg.start_time).to_seconds() / span;
      return leg.from + (leg.to - leg.from) * frac;
    }
  }
  return legs_.front().from;
}

GroupMobility::GroupMobility(std::shared_ptr<MobilityModel> anchor,
                             Vec2 offset, Field field)
    : anchor_(std::move(anchor)), offset_(offset), field_(field) {
  if (!anchor_) {
    throw std::invalid_argument("GroupMobility: null anchor");
  }
}

Vec2 GroupMobility::position_at(TimePoint t) {
  return field_.clamp(anchor_->position_at(t) + offset_);
}

}  // namespace dapes::sim
