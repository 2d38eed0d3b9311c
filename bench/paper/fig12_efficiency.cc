// Figure 12: efficiency of medium usage — application packets delivered
// per data transmission on the vehicle-BS wireless channel, upstream and
// downstream, for BRR, ViFi and the PerfectRelay oracle estimated from
// ViFi's own logs (§5.4).
//
// Paper shape: upstream, ViFi ~ PerfectRelay > BRR; downstream all three
// are comparable (BRR marginally ahead of ViFi).

#include <iostream>

#include "figures.h"

using namespace vifi;

namespace {

/// One trip's Fig. 12 counters.
struct EffTrip {
  double up_num = 0.0, up_den = 0.0, down_num = 0.0, down_den = 0.0;
  core::EfficiencySummary eff;
};

/// Trip-order fold: delivered per transmission pooled over trips, the
/// PerfectRelay estimate averaged per trip.
core::EfficiencySummary fold(const std::vector<EffTrip>& trips) {
  double up_num = 0, up_den = 0, down_num = 0, down_den = 0;
  double pu = 0, pd = 0;
  for (const EffTrip& t : trips) {
    up_num += t.up_num;
    up_den += t.up_den;
    down_num += t.down_num;
    down_den += t.down_den;
    pu += t.eff.perfect_up;
    pd += t.eff.perfect_down;
  }
  const auto n = static_cast<double>(trips.size());
  core::EfficiencySummary out;
  out.up = up_den > 0 ? up_num / up_den : 0.0;
  out.down = down_den > 0 ? down_num / down_den : 0.0;
  out.perfect_up = n > 0 ? pu / n : 0.0;
  out.perfect_down = n > 0 ? pd / n : 0.0;
  return out;
}

}  // namespace

void vifi::bench::fig12_efficiency() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 4 * scale();

  // BRR's trips, then ViFi's, on the same seeds.
  const std::vector<core::SystemConfig> systems{
      runtime::live_policy_config("BRR"), runtime::live_policy_config("ViFi")};
  const auto runs = map_grid(
      systems.size(), static_cast<std::size_t>(trips),
      [&](std::size_t system, std::size_t trip) {
        scenario::LiveTrip live(bed, systems[system], 12000 + trip);
        tcp_pair_trip(live, bed.trip_duration());
        const auto& stats = live.system().stats();
        EffTrip t;
        t.up_num = static_cast<double>(
            stats.app_delivered(net::Direction::Upstream));
        t.up_den = static_cast<double>(
            stats.wireless_data_tx(net::Direction::Upstream));
        t.down_num = static_cast<double>(
            stats.app_delivered(net::Direction::Downstream));
        t.down_den = static_cast<double>(
            stats.wireless_data_tx(net::Direction::Downstream));
        t.eff = stats.efficiency();
        return t;
      });
  const auto brr = fold(runs[0]);
  const auto vifi = fold(runs[1]);

  TextTable table(
      "Figure 12 — packets delivered per wireless data transmission");
  table.set_header({"direction", "BRR", "ViFi", "PerfectRelay (from ViFi "
                    "logs)"});
  table.add_row({"upstream", TextTable::num(brr.up, 2),
                 TextTable::num(vifi.up, 2),
                 TextTable::num(vifi.perfect_up, 2)});
  table.add_row({"downstream", TextTable::num(brr.down, 2),
                 TextTable::num(vifi.down, 2),
                 TextTable::num(vifi.perfect_down, 2)});
  table.print(std::cout);

  std::cout << "\nPaper shape check: upstream ViFi well above BRR and near "
               "PerfectRelay; downstream all comparable (relays spend some "
               "airtime, so BRR can edge ViFi slightly).\n";
}
