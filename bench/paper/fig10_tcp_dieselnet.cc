// Figure 10: TCP transfers per second in the trace-driven DieselNet
// environments (channels 1 and 6), BRR vs ViFi.
//
// Paper shape: ViFi roughly doubles BRR's completed transfers per second
// on both channels.

#include <iostream>

#include "figures.h"

void vifi::bench::fig10_tcp_dieselnet() {
  TextTable table(
      "Figure 10 — TCP transfers/second, trace-driven DieselNet");
  table.set_header({"channel", "BRR", "ViFi", "ViFi/BRR"});

  const std::vector<core::SystemConfig> systems{
      runtime::live_policy_config("BRR"), runtime::live_policy_config("ViFi")};
  for (int channel : {1, 6}) {
    const scenario::Testbed bed = scenario::make_dieselnet(channel);
    const trace::Campaign campaign =
        beacon_campaign(bed, 2, 1, 555 + static_cast<std::uint64_t>(channel));
    // BRR's trips, then ViFi's, on the same seeds.
    const auto pairs = map_grid(
        systems.size(), campaign.trips.size(),
        [&](std::size_t system, std::size_t trip) {
          const trace::MeasurementTrace& trip_trace = campaign.trips[trip];
          scenario::LiveTrip live(bed, {&trip_trace}, systems[system],
                                  10100 + trip);
          return tcp_pair_trip(
              live, trip_trace.duration - scenario::LiveTrip::warmup());
        });
    // Completed transfers per second of transfer time, pooled over trips.
    std::vector<double> rate;
    for (const auto& system_pairs : pairs) {
      apps::TransferDriverResult total;
      for (const TcpPair& pair : system_pairs) pair.pool_into(total);
      rate.push_back(total.transfers_per_second());
    }
    const double brr = rate[0];
    const double vifi = rate[1];
    table.add_row({"Ch. " + std::to_string(channel),
                   TextTable::num(brr, 3), TextTable::num(vifi, 3),
                   TextTable::num(brr > 0 ? vifi / brr : 0.0, 2)});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape check: ViFi roughly doubles BRR's transfer "
               "rate on both channels.\n";
}
