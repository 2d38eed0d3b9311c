#include "mobility/path.h"

#include <algorithm>
#include <cmath>

namespace vifi::mobility {

WaypointPath::WaypointPath(std::vector<Vec2> waypoints, bool closed)
    : waypoints_(std::move(waypoints)), closed_(closed) {
  VIFI_EXPECTS(waypoints_.size() >= 2);
  cumulative_.reserve(waypoints_.size() + 1);
  cumulative_.push_back(0.0);
  for (std::size_t i = 1; i < waypoints_.size(); ++i)
    cumulative_.push_back(cumulative_.back() +
                          distance(waypoints_[i - 1], waypoints_[i]));
  if (closed_)
    cumulative_.push_back(cumulative_.back() +
                          distance(waypoints_.back(), waypoints_.front()));
  ends_ = waypoints_;
  if (closed_) ends_.push_back(waypoints_.front());
  VIFI_ENSURES(total_length() > 0.0);
}

Vec2 WaypointPath::position_at_distance(double dist) const {
  const double len = total_length();
  if (closed_) {
    // std::fmod is exact: a distance already in [0, len) is its own
    // remainder, and one in [len, 2 len) has remainder dist - len, which
    // is exact (Sterbenz). Only the rest needs the library call.
    if (dist >= len && dist < 2.0 * len) {
      dist -= len;
    } else if (!(dist >= 0.0 && dist < len)) {
      dist = std::fmod(dist, len);
      if (dist < 0.0) dist += len;
    }
  } else {
    dist = std::clamp(dist, 0.0, len);
  }
  // Find the segment containing `dist`. cumulative_ has one entry per
  // waypoint plus (if closed) the wrap segment.
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), dist);
  std::size_t seg = static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(0, it - cumulative_.begin() - 1));
  if (seg >= cumulative_.size() - 1) seg = cumulative_.size() - 2;
  const double seg_start = cumulative_[seg];
  const double seg_len = cumulative_[seg + 1] - seg_start;
  const double t = seg_len > 0.0 ? (dist - seg_start) / seg_len : 0.0;
  return lerp(ends_[seg], ends_[seg + 1], t);
}

}  // namespace vifi::mobility
