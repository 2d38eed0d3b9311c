#include "scenario/live.h"

#include <set>

#include "util/contracts.h"

namespace vifi::scenario {

void LiveTrip::build_stack(const Testbed& bed, core::SystemConfig config,
                           std::uint64_t system_seed) {
  config.seed = system_seed;
  system_ = std::make_unique<core::VifiSystem>(sim_, *channel_, bed.bs_ids(),
                                               bed.vehicle_ids(),
                                               bed.wired_host(), config);
  if (config.coord.enabled) {
    coord_ = std::make_unique<coord::ConnectivityManager>(sim_, config.coord);
    coord::attach(*system_, *coord_);
  }
  for (const NodeId v : bed.vehicle_ids())
    transports_.push_back(std::make_unique<apps::VifiTransport>(*system_, v));
}

LiveTrip::LiveTrip(const Testbed& bed, core::SystemConfig config,
                   std::uint64_t trip_seed) {
  Rng root(trip_seed);
  channel_ = bed.make_channel(root.fork("channel"));
  build_stack(bed, config, root.fork("system").next_u64());
}

LiveTrip::LiveTrip(const Testbed& bed,
                   const std::vector<const trace::MeasurementTrace*>& trips,
                   core::SystemConfig config, std::uint64_t trip_seed,
                   bool use_bs_beacon_logs) {
  VIFI_EXPECTS(trips.size() == static_cast<std::size_t>(bed.fleet_size()));
  // Mismatched traces (recorded on a testbed with a different id layout)
  // would register schedules under foreign ids and leave the whole fleet
  // silently deaf — fail loudly instead.
  std::set<NodeId> seen;
  for (const trace::MeasurementTrace* trip : trips) {
    VIFI_EXPECTS(trip != nullptr);
    if (!bed.is_vehicle(trip->vehicle))
      throw ContractViolation(
          "LiveTrip: trace logged by " + trip->vehicle.to_string() +
          ", which is not a vehicle of this testbed");
    if (!seen.insert(trip->vehicle).second)
      throw ContractViolation("LiveTrip: duplicate trace for vehicle " +
                              trip->vehicle.to_string());
  }
  Rng root(trip_seed);
  channel_ = trace::build_fleet_loss_schedule(trips, use_bs_beacon_logs,
                                              root.fork("schedule"));
  build_stack(bed, config, root.fork("system").next_u64());
}

apps::VifiTransport& LiveTrip::transport(sim::NodeId vehicle) {
  for (auto& t : transports_)
    if (t->vehicle() == vehicle) return *t;
  throw ContractViolation("LiveTrip: no transport for vehicle " +
                          vehicle.to_string());
}

void LiveTrip::run_until(Time until) {
  if (!started_) {
    started_ = true;
    system_->start();
    if (coord_ != nullptr) coord_->start();
  }
  VIFI_EXPECTS(until >= sim_.now());
  sim_.run_until(until);
}

}  // namespace vifi::scenario
