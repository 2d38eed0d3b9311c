// §5.1 validation of the trace-driven methodology: collect beacon logs on
// VanLAN (including BS-to-BS beacons), build the per-second loss schedule,
// and compare application metrics between the "deployment" (stochastic
// channel) and the trace-driven replay of the same environment.
//
// Paper result: "the simulation results match the deployment results...
// VoIP session lengths in the simulations are within five seconds of the
// session lengths observed for the deployed prototype."

#include <cmath>
#include <iostream>

#include "figures.h"

void vifi::bench::validation_tracesim() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 5 * scale();

  // Beacon-logging campaign with BS-side logs enabled.
  scenario::CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = trips;
  cc.seed = 16000;
  cc.log_probes = false;
  cc.log_bs_beacons = true;
  const trace::Campaign campaign = generate_campaign(bed, cc);

  // Per trip, the deployment run then its trace-driven replay, on the
  // same seed.
  const auto calls = map_grid(
      static_cast<std::size_t>(trips), 2,
      [&](std::size_t trip, std::size_t replayed) {
        const std::uint64_t seed = 16100 + trip;
        if (replayed == 0) {
          scenario::LiveTrip deployed(bed, runtime::live_policy_config("ViFi"),
                                      seed);
          return voip_trip(deployed, bed.trip_duration());
        }
        scenario::LiveTrip replay(bed, {&campaign.trips[trip]},
                                  runtime::live_policy_config("ViFi"), seed,
                                  /*use_bs_beacon_logs=*/true);
        return voip_trip(replay, bed.trip_duration());
      });

  TextTable table(
      "§5.1 validation — deployment vs trace-driven simulation (VoIP)");
  table.set_header({"trip", "deployment median session (s)",
                    "trace-driven median session (s)", "difference (s)"});
  VoipTally dep_tally, sim_tally;
  for (std::size_t t = 0; t < calls.size(); ++t) {
    const apps::VoipResult& res_a = calls[t][0];
    const apps::VoipResult& res_b = calls[t][1];
    dep_tally.add(res_a);
    sim_tally.add(res_b);
    table.add_row({std::to_string(t),
                   TextTable::num(res_a.median_session_s, 1),
                   TextTable::num(res_b.median_session_s, 1),
                   TextTable::num(std::abs(res_a.median_session_s -
                                           res_b.median_session_s),
                                  1)});
  }
  table.print(std::cout);

  // The paper compares aggregate session lengths: per-trip medians are
  // noisy (one extra interruption halves a trip's median), so the pooled
  // median is the meaningful fidelity check.
  const double dep_median = dep_tally.median_session();
  const double sim_median = sim_tally.median_session();
  std::cout << "\nPooled median session: deployment="
            << TextTable::num(dep_median, 1)
            << "s trace-driven=" << TextTable::num(sim_median, 1)
            << "s difference="
            << TextTable::num(std::abs(dep_median - sim_median), 1)
            << "s (paper: within ~5 s)\n";
}
