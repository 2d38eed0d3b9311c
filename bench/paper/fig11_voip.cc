// Figure 11: median length of uninterrupted VoIP sessions — VanLAN (live)
// and trace-driven DieselNet channels 1 and 6 — BRR vs ViFi, plus the
// mean 3-second-MoS comparison quoted in §5.3.2.
//
// Paper shape: ViFi's sessions are >2x BRR's on VanLAN, >1.5x on Ch. 1 and
// >1.65x on Ch. 6; mean MoS 3.4 (ViFi) vs 3.0 (BRR) on VanLAN.

#include <algorithm>
#include <iostream>
#include <utility>

#include "figures.h"

void vifi::bench::fig11_voip() {
  TextTable table("Figure 11 — uninterrupted VoIP sessions");
  table.set_header({"environment", "BRR median (s)", "ViFi median (s)",
                    "ViFi/BRR", "BRR intr/h", "ViFi intr/h"});

  // calls[system][trip]: BRR's calls then ViFi's, on the same seeds.
  const std::vector<core::SystemConfig> systems{
      runtime::live_policy_config("BRR"), runtime::live_policy_config("ViFi")};
  using Calls = std::vector<std::vector<apps::VoipResult>>;
  auto add_row = [&](const std::string& label, const Calls& calls) {
    VoipTally brr, vifi;
    for (const auto& call : calls[0]) brr.add(call);
    for (const auto& call : calls[1]) vifi.add(call);
    table.add_row(
        {label, TextTable::num(brr.median_session(), 1),
         TextTable::num(vifi.median_session(), 1),
         TextTable::num(brr.median_session() > 0
                            ? vifi.median_session() / brr.median_session()
                            : 0.0,
                        2),
         TextTable::num(brr.interruptions_per_hour(), 1),
         TextTable::num(vifi.interruptions_per_hour(), 1)});
    return std::pair{brr.mean_mos(), vifi.mean_mos()};
  };

  const scenario::Testbed vanlan = scenario::make_vanlan();
  const auto [vanlan_mos_brr, vanlan_mos_vifi] = add_row(
      "VanLAN (deployment)",
      map_grid(systems.size(), 8 * static_cast<std::size_t>(scale()),
               [&](std::size_t system, std::size_t trip) {
                 scenario::LiveTrip live(vanlan, systems[system],
                                         11100 + trip);
                 return voip_trip(live, vanlan.trip_duration());
               }));

  for (int channel : {1, 6}) {
    const scenario::Testbed bed = scenario::make_dieselnet(channel);
    const trace::Campaign campaign = beacon_campaign(
        bed, 2, 2, 777 + static_cast<std::uint64_t>(channel));
    add_row("DieselNet Ch. " + std::to_string(channel) + " (trace-driven)",
            map_grid(systems.size(), campaign.trips.size(),
                     [&](std::size_t system, std::size_t trip) {
                       const trace::MeasurementTrace& trip_trace =
                           campaign.trips[trip];
                       scenario::LiveTrip live(bed, {&trip_trace},
                                               systems[system], 11200 + trip);
                       // Cap call length: enough windows per trip,
                       // affordable with more trips for tighter medians.
                       return voip_trip(
                           live, std::min(trip_trace.duration -
                                              scenario::LiveTrip::warmup(),
                                          Time::seconds(360.0)));
                     }));
  }

  table.print(std::cout);
  std::cout << "\nMean 3-second MoS on VanLAN: ViFi="
            << TextTable::num(vanlan_mos_vifi, 2)
            << " BRR=" << TextTable::num(vanlan_mos_brr, 2)
            << " (paper: 3.4 vs 3.0)\n";
  std::cout << "Paper shape check: ViFi sessions >2x BRR on VanLAN and "
               ">1.5x on both DieselNet channels; ViFi MoS above BRR.\n";
}
