#include "scenario/testbed.h"

#include <algorithm>
#include <string>

#include "util/contracts.h"

namespace vifi::scenario {

Testbed::Testbed(mobility::Layout layout,
                 channel::VehicularChannelParams channel_params,
                 FleetSpec fleet)
    : layout_(std::move(layout)), channel_params_(channel_params) {
  const int n = static_cast<int>(layout_.bs_positions.size());
  VIFI_EXPECTS(n > 0);
  VIFI_EXPECTS(fleet.vehicles > 0);
  VIFI_EXPECTS(fleet.phases.empty() ||
               fleet.phases.size() == static_cast<std::size_t>(fleet.vehicles));
  bs_ids_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) bs_ids_.push_back(NodeId(i));
  for (int v = 0; v < fleet.vehicles; ++v) {
    vehicle_ids_.push_back(NodeId(n + v));
    const double phase = fleet.phases.empty()
                             ? static_cast<double>(v) /
                                   static_cast<double>(fleet.vehicles)
                             : fleet.phases[static_cast<std::size_t>(v)];
    vehicle_mobility_.push_back(mobility::make_vehicle_mobility(layout_, phase));
  }
  wired_host_ = NodeId(n + fleet.vehicles);
}

bool Testbed::is_vehicle(NodeId node) const {
  return node.valid() && node >= vehicle_ids_.front() &&
         node <= vehicle_ids_.back();
}

mobility::Vec2 Testbed::bs_position(NodeId bs) const {
  VIFI_EXPECTS(bs.valid() &&
               bs.value() < static_cast<int>(layout_.bs_positions.size()));
  return layout_.bs_positions[static_cast<std::size_t>(bs.value())];
}

mobility::Vec2 Testbed::position(NodeId node, Time t) const {
  if (is_vehicle(node)) {
    const auto i =
        static_cast<std::size_t>(node.value() - vehicle_ids_.front().value());
    return vehicle_mobility_[i]->position_at(t);
  }
  if (node == wired_host_) {
    // The wired host has no radio; park it far outside the radio plane.
    return {-1e9, -1e9};
  }
  if (!node.valid() || node > wired_host_) {
    throw ContractViolation(
        "Testbed::position: node " + node.to_string() + " is not part of " +
        layout_.name + " (valid ids: BSes 0.." +
        std::to_string(bs_ids_.size() - 1) + ", vehicles " +
        vehicle_ids_.front().to_string() + ".." +
        vehicle_ids_.back().to_string() + ", wired host " +
        wired_host_.to_string() + ")");
  }
  return bs_position(node);
}

channel::VehicularChannel::PositionFn Testbed::position_fn() const {
  return [this](NodeId node, Time t) { return position(node, t); };
}

std::unique_ptr<channel::VehicularChannel> Testbed::make_channel(
    Rng rng) const {
  auto ch = std::make_unique<channel::VehicularChannel>(channel_params_,
                                                        position_fn(), rng);
  for (NodeId v : vehicle_ids_) ch->mark_mobile(v);
  for (NodeId bs : bs_ids_) ch->mark_fixed(bs);
  return ch;
}

mac::SpatialCulling Testbed::make_culling(double audibility_threshold) const {
  mac::SpatialCulling cull;
  cull.position = position_fn();
  cull.max_audible_m =
      channel::DistanceLossCurve(channel_params_.distance)
          .range_for(audibility_threshold);
  // Margin per endpoint between refreshes: the route cruise speed with
  // generous slack (buses dwell, shuttles hold the speed limit).
  cull.refresh = Time::millis(250);
  cull.margin_m = std::max(10.0, 3.0 * layout_.cruise_mps * 0.25);
  return cull;
}

Time Testbed::trip_duration() const {
  return mobility::route_cycle_time(layout_);
}

Testbed make_vanlan(int vehicles) {
  channel::VehicularChannelParams params;  // defaults are VanLAN-calibrated
  FleetSpec fleet;
  fleet.vehicles = vehicles;
  return Testbed(mobility::vanlan_layout(), params, std::move(fleet));
}

Testbed make_dieselnet(int channel, int vehicles) {
  FleetSpec fleet;
  fleet.vehicles = vehicles;
  return make_dieselnet_fleet(channel, std::move(fleet));
}

Testbed make_dieselnet_fleet(int channel, FleetSpec fleet) {
  channel::VehicularChannelParams params;
  // Town environment: shorter usable range (buildings, foliage, non-WiFi
  // interferers) and slightly longer gray periods than the campus.
  params.distance.midpoint_m = 130.0;
  params.distance.width_m = 30.0;
  params.gray_mean_off = Time::seconds(45.0);
  params.gray_mean_on = Time::seconds(5.0);
  return Testbed(mobility::dieselnet_layout(channel), params,
                 std::move(fleet));
}

}  // namespace vifi::scenario
