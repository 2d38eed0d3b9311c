#include "trace/loss_schedule.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/contracts.h"

namespace vifi::trace {

bool ever_covisible(const MeasurementTrace& trip, NodeId a, NodeId b) {
  const auto counts = beacon_counts_per_second(trip);
  const auto ia = counts.find(a);
  const auto ib = counts.find(b);
  if (ia == counts.end() || ib == counts.end()) return false;
  const std::size_t n = std::min(ia->second.size(), ib->second.size());
  for (std::size_t s = 0; s < n; ++s)
    if (ia->second[s] > 0 && ib->second[s] > 0) return true;
  return false;
}

namespace {

/// Registers one vehicle's per-second beacon loss ratios, symmetric.
void add_vehicle_links(channel::TraceLossModel& model,
                       const MeasurementTrace& trip, NodeId vehicle) {
  VIFI_EXPECTS(vehicle.valid());
  VIFI_EXPECTS(trip.beacons_per_second > 0);
  const auto counts = beacon_counts_per_second(trip);
  for (const auto& [bs, per_sec] : counts) {
    for (std::size_t s = 0; s < per_sec.size(); ++s) {
      const double ratio =
          std::clamp(static_cast<double>(per_sec[s]) /
                         static_cast<double>(trip.beacons_per_second),
                     0.0, 1.0);
      model.set_loss_rate(vehicle, bs, static_cast<int>(s), 1.0 - ratio);
    }
  }
}

/// Registers inter-BS links per the §5.1 rules (shared across vehicles).
void add_interbs_links(channel::TraceLossModel& model,
                       const MeasurementTrace& trip, bool use_bs_beacon_logs,
                       Rng& rng);

}  // namespace

std::unique_ptr<channel::TraceLossModel> build_fleet_loss_schedule(
    const std::vector<const MeasurementTrace*>& trips,
    bool use_bs_beacon_logs, Rng rng) {
  VIFI_EXPECTS(!trips.empty());
  // Validate the fleet before touching the model: a duplicate or foreign
  // trace would register schedules under the wrong ids and leave part of
  // the fleet silently deaf.
  std::set<NodeId> vehicles;
  for (const MeasurementTrace* trip : trips) {
    VIFI_EXPECTS(trip != nullptr);
    if (!trip->vehicle.valid())
      throw std::runtime_error(
          "build_fleet_loss_schedule: trace (day " +
          std::to_string(trip->day) + ", trip " + std::to_string(trip->trip) +
          ") names no logging vehicle; fleet schedules need one trace per "
          "vehicle");
    if (!vehicles.insert(trip->vehicle).second)
      throw std::runtime_error(
          "build_fleet_loss_schedule: duplicate trace for vehicle " +
          trip->vehicle.to_string());
    if (trip->testbed != trips.front()->testbed)
      throw std::runtime_error(
          "build_fleet_loss_schedule: foreign trace — testbed '" +
          trip->testbed + "' does not match '" + trips.front()->testbed +
          "'");
    // Compare as sets: the trace format puts no ordering contract on its
    // `bs` lines (real logs may record BSes in first-heard order).
    auto sorted_bs = [](const MeasurementTrace& t) {
      std::vector<NodeId> ids = t.bs_ids;
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    if (sorted_bs(*trip) != sorted_bs(*trips.front()))
      throw std::runtime_error(
          "build_fleet_loss_schedule: foreign trace — vehicle " +
          trip->vehicle.to_string() +
          "'s log names a different BS set than the first trace");
  }
  auto model = std::make_unique<channel::TraceLossModel>(rng.fork("draws"));
  for (const MeasurementTrace* trip : trips)
    add_vehicle_links(*model, *trip, trip->vehicle);
  add_interbs_links(*model, *trips.front(), use_bs_beacon_logs, rng);
  return model;
}

namespace {

void add_interbs_links(channel::TraceLossModel& model,
                       const MeasurementTrace& trip, bool use_bs_beacon_logs,
                       Rng& rng) {
  if (use_bs_beacon_logs) {
    // VanLAN validation: per-second inter-BS beacon loss ratios.
    std::map<std::pair<int, int>, std::map<int, int>> heard;  // (tx,rx)->sec->n
    for (const BsBeaconObs& b : trip.bs_beacons) {
      const int s = static_cast<int>(b.t.to_micros() / 1'000'000);
      ++heard[{b.tx.value(), b.rx.value()}][s];
    }
    const int horizon = trip.seconds();
    for (NodeId a : trip.bs_ids) {
      for (NodeId b : trip.bs_ids) {
        if (!(a < b)) continue;
        // Symmetrise by averaging the two directions' counts.
        const auto& ab = heard[{a.value(), b.value()}];
        const auto& ba = heard[{b.value(), a.value()}];
        for (int s = 0; s < horizon; ++s) {
          const auto fa = ab.find(s);
          const auto fb = ba.find(s);
          const int n = (fa != ab.end() ? fa->second : 0) +
                        (fb != ba.end() ? fb->second : 0);
          const double ratio =
              std::clamp(static_cast<double>(n) /
                             (2.0 * trip.beacons_per_second),
                         0.0, 1.0);
          model.set_loss_rate(a, b, s, 1.0 - ratio);
        }
      }
    }
  } else {
    // DieselNet rule: never-co-visible pairs are unreachable; others get a
    // Uniform(0,1) constant loss ratio (§5.1).
    Rng interbs = rng.fork("interbs");
    for (NodeId a : trip.bs_ids) {
      for (NodeId b : trip.bs_ids) {
        if (!(a < b)) continue;
        if (!ever_covisible(trip, a, b)) continue;  // unset => loss 1.0
        model.set_constant_loss_rate(a, b, interbs.uniform01());
      }
    }
  }
}

}  // namespace

}  // namespace vifi::trace
