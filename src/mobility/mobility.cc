#include "mobility/mobility.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::mobility {

PathMobility::PathMobility(WaypointPath path, double speed_mps,
                           double start_offset_m)
    : path_(std::move(path)),
      speed_mps_(speed_mps),
      start_offset_m_(start_offset_m) {
  VIFI_EXPECTS(speed_mps > 0.0);
}

Vec2 PathMobility::position_at(Time t) const {
  const double d = start_offset_m_ + speed_mps_ * t.to_seconds();
  return path_.position_at_distance(d);
}

Time PathMobility::lap_time() const {
  return Time::seconds(path_.total_length() / speed_mps_);
}

BusMobility::BusMobility(WaypointPath path, double cruise_mps,
                         std::vector<Stop> stops, Time start_phase)
    : path_(std::move(path)),
      cruise_mps_(cruise_mps),
      stops_(std::move(stops)),
      start_phase_(start_phase) {
  VIFI_EXPECTS(cruise_mps > 0.0);
  VIFI_EXPECTS(!start_phase.is_negative());
  std::sort(stops_.begin(), stops_.end(),
            [](const Stop& a, const Stop& b) {
              return a.at_distance_m < b.at_distance_m;
            });
  for (const Stop& s : stops_) {
    VIFI_EXPECTS(s.at_distance_m >= 0.0 &&
                 s.at_distance_m <= path_.total_length());
    VIFI_EXPECTS(!s.dwell.is_negative());
  }
  Time dwell_total = Time::zero();
  double prev_m = 0.0;
  for (const Stop& s : stops_) {
    dwell_total += s.dwell;
    leg_time_.push_back(Time::seconds((s.at_distance_m - prev_m) / cruise_mps_));
    prev_m = s.at_distance_m;
  }
  lap_time_ = Time::seconds(path_.total_length() / cruise_mps_) + dwell_total;
}

Time BusMobility::lap_time() const { return lap_time_; }

double BusMobility::lap_distance_at(Time t_in_lap) const {
  // Walk the lap: cruise segments interleaved with dwells.
  double pos_m = 0.0;
  Time t = t_in_lap;
  for (std::size_t i = 0; i < stops_.size(); ++i) {
    const Stop& s = stops_[i];
    if (t <= leg_time_[i]) return pos_m + cruise_mps_ * t.to_seconds();
    t -= leg_time_[i];
    pos_m = s.at_distance_m;
    if (t <= s.dwell) return pos_m;
    t -= s.dwell;
  }
  return pos_m + cruise_mps_ * t.to_seconds();
}

Vec2 BusMobility::position_at(Time t) const {
  VIFI_EXPECTS(!t.is_negative());
  const Time shifted = t + start_phase_;
  const double laps = shifted / lap_time_;
  Time in_lap = shifted - lap_time_ * std::floor(laps);
  // Exact lap boundaries must map to the lap start, not a full lap (the
  // scaled subtraction above can leave in_lap == lap_time_ to rounding).
  if (in_lap >= lap_time_) in_lap -= lap_time_;
  return path_.position_at_distance(lap_distance_at(in_lap));
}

}  // namespace vifi::mobility
