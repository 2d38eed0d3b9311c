// Figure 9: TCP performance in VanLAN — (a) median time to complete a
// 10 KB transfer for BRR, ViFi-without-salvaging ("Only Diversity") and
// full ViFi; (b) completed transfers per session. Includes the EVDO
// cellular context rows of §5.3.1.
//
// Paper shape: ViFi's median transfer time ~0.6 s, ~50% better than BRR;
// diversity provides most of the gain, salvaging ~10%; ViFi completes
// more than twice as many transfers per session; EVDO medians ~0.75 s
// (down) / ~1.2 s (up).

#include <iostream>

#include "apps/cellular.h"
#include "figures.h"

void vifi::bench::fig09_tcp_vanlan() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 4 * scale();

  TextTable table("Figure 9 — TCP performance, VanLAN (10 KB transfers)");
  table.set_header({"protocol", "median xfer (s)", "mean xfer (s)",
                    "p90 xfer (s)", "transfers/session", "completed",
                    "aborted", "salvaged pkts %"});

  const std::vector<std::pair<std::string, core::SystemConfig>> systems{
      {"BRR", runtime::live_policy_config("BRR")},
      {"Only Diversity", runtime::live_policy_config("Diversity")},
      {"ViFi", runtime::live_policy_config("ViFi")}};
  // One TCP trip: both transfer directions plus the ViFi stack's salvage
  // and source-attempt counters.
  struct TcpTrip {
    TcpPair pair;
    std::int64_t salvaged = 0;
    std::int64_t packets = 0;
  };
  const auto runs = map_grid(
      systems.size(), static_cast<std::size_t>(trips),
      [&](std::size_t system, std::size_t trip) {
        scenario::LiveTrip live(bed, systems[system].second, 9100 + trip);
        TcpTrip run{tcp_pair_trip(live, bed.trip_duration())};
        const auto& stats = live.system().stats();
        run.salvaged = stats.salvaged();
        run.packets = stats.source_attempts(net::Direction::Downstream) +
                      stats.source_attempts(net::Direction::Upstream);
        return run;
      });

  for (std::size_t sys = 0; sys < systems.size(); ++sys) {
    apps::TransferDriverResult total;
    double salvaged = 0.0;
    std::int64_t packets = 0;
    for (const TcpTrip& run : runs[sys]) {
      run.pair.pool_into(total);
      salvaged += static_cast<double>(run.salvaged);
      packets += run.packets;
    }
    const std::vector<double>& times_s = total.transfer_times_s;
    RunningStats times;
    for (double t : times_s) times.add(t);
    table.add_row(
        {systems[sys].first, TextTable::num(total.median_transfer_time_s(), 2),
         TextTable::num(times.count() ? times.mean() : 0.0, 2),
         TextTable::num(times_s.empty() ? 0.0 : percentile(times_s, 90.0), 2),
         TextTable::num(total.mean_transfers_per_session(), 1),
         std::to_string(times_s.size()), std::to_string(total.aborted),
         TextTable::pct(
             packets > 0 ? salvaged / static_cast<double>(packets) : 0.0, 1)});
  }
  table.print(std::cout);

  // EVDO comparison (§5.3.1) over the synthetic cellular bearer.
  TextTable cell("EVDO Rev. A context (cellular modem in the same vehicle)");
  cell.set_header({"direction", "median transfer time (s)"});
  for (const auto& [label, dir] :
       std::vector<std::pair<std::string, net::Direction>>{
           {"downlink", net::Direction::Downstream},
           {"uplink", net::Direction::Upstream}}) {
    sim::Simulator sim;
    apps::CellularTransport bearer(sim, {}, Rng(77));
    apps::TransferDriver driver(sim, bearer, dir);
    driver.start(Time::seconds(120.0));
    sim.run_until(Time::seconds(121.0));
    const auto r = driver.result();
    cell.add_row({label, TextTable::num(r.median_transfer_time_s(), 2)});
  }
  std::cout << "\n";
  cell.print(std::cout);

  std::cout << "\nPaper shape check: ViFi transfer time ~half of BRR's, "
               "most of the gain from diversity with a visible salvage "
               "slice; ViFi >2x BRR transfers/session; ViFi competitive "
               "with EVDO (paper: 0.75 s down / 1.2 s up).\n";
}
