// Figure 8: the behaviour of BRR and ViFi along a VanLAN path segment —
// regions of adequate connectivity vs interruption markers.
//
// Paper shape: BRR shows several interruptions along the path; ViFi shows
// about one.

#include <iostream>

#include "figures.h"

void vifi::bench::fig08_path() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const analysis::SessionDef def{};
  const int trips = 3 * scale();

  // Per trip, BRR then ViFi on the same seed.
  const std::vector<std::pair<std::string, core::SystemConfig>> systems{
      {"BRR ", runtime::live_policy_config("BRR")},
      {"ViFi", runtime::live_policy_config("ViFi")}};
  const auto streams = map_grid(
      static_cast<std::size_t>(trips), systems.size(),
      [&](std::size_t trip, std::size_t system) {
        return cbr_link_trip(bed, systems[system].second, 8800 + trip);
      });

  std::cout << "Figure 8 — live trips, '#'=adequate (>=50% in 1 s), "
               "'.'=interruption, ' '=no coverage\n\n";
  double brr_total = 0.0, vifi_total = 0.0;
  for (std::size_t trip = 0; trip < streams.size(); ++trip) {
    for (std::size_t system = 0; system < systems.size(); ++system) {
      const std::string& name = systems[system].first;
      const auto tl =
          analysis::connectivity_timeline(streams[trip][system], def);
      std::cout << name << " trip " << trip << " ("
                << tl.interruptions << " interruptions, "
                << TextTable::num(tl.adequate_s, 0) << "s adequate)\n  "
                << tl.strip << "\n";
      (name == "BRR " ? brr_total : vifi_total) += tl.interruptions;
    }
    std::cout << "\n";
  }
  std::cout << "Average interruptions per trip: BRR="
            << TextTable::num(brr_total / trips, 1)
            << "  ViFi=" << TextTable::num(vifi_total / trips, 1) << "\n";
  std::cout << "Paper shape check: ViFi has markedly fewer interruptions "
               "than BRR on the same paths.\n";
}
