// Figure 5: CDF of the number of BSes from which the vehicle hears beacons
// in a 1-second period — definition (a) at least one beacon, (b) at least
// 50% of beacons — for VanLAN and DieselNet channels 1 and 6.
//
// Also includes the §3.4.1 check: restricting AllBSes to the best k BSes
// shows "two BSes give most of the gain, no benefit past three".

#include <iostream>

#include "analysis/diversity.h"
#include "figures.h"

void vifi::bench::fig05_diversity() {
  const scenario::Testbed vanlan = scenario::make_vanlan();
  const scenario::Testbed ch1 = scenario::make_dieselnet(1);
  const scenario::Testbed ch6 = scenario::make_dieselnet(6);

  const trace::Campaign c_van = vanlan_campaign(vanlan);
  const trace::Campaign c_ch1 = beacon_campaign(ch1);
  const trace::Campaign c_ch6 = beacon_campaign(ch6, 3, 2, 20071206);

  const std::vector<double> xs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (const auto& [title, min_fraction] :
       std::vector<std::pair<std::string, double>>{
           {"Figure 5(a) — % of 1-s periods with <= x BSes audible "
            "(at least one beacon)",
            0.0},
           {"Figure 5(b) — same, requiring at least 50% of beacons", 0.5}}) {
    SeriesChart chart(title, "#visible BSes");
    chart.set_x(xs);
    for (const auto& [name, campaign] :
         std::vector<std::pair<std::string, const trace::Campaign*>>{
             {"VanLAN", &c_van},
             {"DieselNet Ch.1", &c_ch1},
             {"DieselNet Ch.6", &c_ch6}}) {
      const Cdf cdf = analysis::visible_bs_cdf(*campaign, min_fraction);
      std::vector<double> ys;
      ys.reserve(xs.size());
      for (double x : xs) ys.push_back(100.0 * cdf.fraction_at_or_below(x));
      chart.add_series(name, std::move(ys));
    }
    chart.set_precision(1);
    chart.print(std::cout);
    std::cout << "\n";
  }

  // §3.4.1: diversity gain saturates after ~2-3 BSes.
  TextTable table(
      "§3.4.1 — AllBSes restricted to the best k BSes (packets delivered, "
      "thousands, whole VanLAN campaign)");
  table.set_header({"k", "packets (K)", "% of full AllBSes"});
  std::int64_t full = 0;
  for (const auto& trip : c_van.trips)
    full += handoff::packets_delivered(handoff::replay_allbses(trip));
  for (int k : {1, 2, 3, 4, 11}) {
    std::int64_t got = 0;
    for (const auto& trip : c_van.trips)
      got += handoff::packets_delivered(handoff::replay_allbses(trip, k));
    table.add_row({std::to_string(k),
                   TextTable::num(static_cast<double>(got) / 1000.0, 1),
                   TextTable::pct(static_cast<double>(got) /
                                  static_cast<double>(full))});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape check: vehicles regularly hear 2+ BSes; k=2 "
               "captures most of the AllBSes gain, k=3 nearly all.\n";
}
