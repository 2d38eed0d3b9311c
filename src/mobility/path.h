#pragma once

/// \file path.h
/// Piecewise-linear waypoint paths with arc-length parameterisation, the
/// skeleton of every vehicle route.

#include <vector>

#include "mobility/vec2.h"
#include "util/contracts.h"

namespace vifi::mobility {

/// An ordered sequence of waypoints traversed at arc-length speed. A closed
/// path wraps from the last waypoint back to the first.
class WaypointPath {
 public:
  /// \p closed joins the last waypoint back to the first.
  explicit WaypointPath(std::vector<Vec2> waypoints, bool closed = false);

  double total_length() const { return cumulative_.back(); }
  bool closed() const { return closed_; }
  const std::vector<Vec2>& waypoints() const { return waypoints_; }

  /// Position after travelling \p dist meters from the first waypoint.
  /// On a closed path the distance wraps; on an open path it clamps at the
  /// endpoints.
  Vec2 position_at_distance(double dist) const;

 private:
  std::vector<Vec2> waypoints_;
  /// The waypoints, then (if closed) the first again: segment i runs from
  /// ends_[i] to ends_[i + 1].
  std::vector<Vec2> ends_;
  std::vector<double> cumulative_;  // cumulative_[i] = length up to segment i
  bool closed_;
};

}  // namespace vifi::mobility
