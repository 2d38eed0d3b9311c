#pragma once

/// \file mobility.h
/// Mobility models mapping simulated time to position. The vehicle models
/// mirror the testbeds: a campus shuttle looping a route (VanLAN) and a
/// transit bus with stops (DieselNet).

#include <memory>
#include <vector>

#include "mobility/path.h"
#include "mobility/vec2.h"
#include "util/time.h"

namespace vifi::mobility {

/// Maps simulated time to a position in the plane.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position_at(Time t) const = 0;
};

/// A node that never moves (a basestation).
class FixedPosition final : public MobilityModel {
 public:
  explicit FixedPosition(Vec2 p) : p_(p) {}
  Vec2 position_at(Time) const override { return p_; }

 private:
  Vec2 p_;
};

/// Constant-speed traversal of a waypoint path, wrapping on closed paths
/// and parking at the end of open ones.
class PathMobility final : public MobilityModel {
 public:
  /// \p speed_mps must be positive. \p start_offset_m shifts where on the
  /// path the node is at t = 0.
  PathMobility(WaypointPath path, double speed_mps,
               double start_offset_m = 0.0);

  Vec2 position_at(Time t) const override;

  const WaypointPath& path() const { return path_; }
  /// Duration of one full traversal of the path.
  Time lap_time() const;

 private:
  WaypointPath path_;
  double speed_mps_;
  double start_offset_m_;
};

/// A transit-style route: constant cruise speed punctuated by fixed dwell
/// stops (bus stops), repeated every lap. Dwells lengthen contact time with
/// BSes near stops, the dominant connectivity pattern in DieselNet.
class BusMobility final : public MobilityModel {
 public:
  struct Stop {
    double at_distance_m = 0.0;  ///< Position along the path.
    Time dwell;                  ///< How long the bus waits there.
  };

  /// \p start_phase shifts where in the lap cycle (cruise + dwells) the bus
  /// is at t = 0; fleets stagger buses on a shared stop schedule with it.
  BusMobility(WaypointPath path, double cruise_mps, std::vector<Stop> stops,
              Time start_phase = Time::zero());

  Vec2 position_at(Time t) const override;

  /// Time for one lap including dwells.
  Time lap_time() const;

 private:
  /// Distance travelled within a lap after `t_in_lap`.
  double lap_distance_at(Time t_in_lap) const;

  WaypointPath path_;
  double cruise_mps_;
  std::vector<Stop> stops_;  // sorted by at_distance_m
  /// leg_time_[i]: cruise time from the previous stop (or the lap start)
  /// to stops_[i].
  std::vector<Time> leg_time_;
  Time lap_time_;
  Time start_phase_;
};

}  // namespace vifi::mobility
