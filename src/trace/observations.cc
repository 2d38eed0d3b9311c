#include "trace/observations.h"

#include <algorithm>

namespace vifi::trace {

bool ProbeSlot::down_from(NodeId bs) const {
  return std::find(down_heard.begin(), down_heard.end(), bs) !=
         down_heard.end();
}

bool ProbeSlot::up_to(NodeId bs) const {
  return std::find(up_heard_by.begin(), up_heard_by.end(), bs) !=
         up_heard_by.end();
}

std::map<NodeId, std::vector<int>> beacon_counts_per_second(
    const MeasurementTrace& t) {
  std::map<NodeId, std::vector<int>> counts;
  const auto secs = static_cast<std::size_t>(std::max(1, t.seconds()));
  for (NodeId bs : t.bs_ids) counts[bs].assign(secs, 0);
  for (const BeaconObs& b : t.vehicle_beacons) {
    const auto s = static_cast<std::size_t>(b.t.to_micros() / 1'000'000);
    if (s >= secs) continue;
    auto it = counts.find(b.bs);
    if (it == counts.end()) continue;
    ++it->second[s];
  }
  return counts;
}

int Campaign::days() const {
  int d = 0;
  for (const auto& t : trips) d = std::max(d, t.day + 1);
  return d;
}

std::vector<const MeasurementTrace*> Campaign::trips_on_day(int day) const {
  std::vector<const MeasurementTrace*> out;
  for (const auto& t : trips)
    if (t.day == day) out.push_back(&t);
  return out;
}

}  // namespace vifi::trace
