// Figure 7: link-layer performance of deployed ViFi vs BRR (live runs of
// the same stack, §5.2) and vs the BestBS / AllBSes oracles (trace replay,
// same methodology as Fig. 4) — median session length across both
// adequate-connectivity sweeps.
//
// Paper shape: ViFi beats the ideal single-BS protocol (BestBS) and
// closely approximates the ideal diversity protocol (AllBSes).
//
// The live trips — the expensive part — run trip-parallel (map_trips):
// each (system, trip) pair's seed depends only on the trip index, so the
// recorded slot streams (and hence every chart) are identical for any
// thread count.

#include <iostream>
#include <string>
#include <vector>

#include "coord/predictor.h"
#include "figures.h"

using namespace vifi;

namespace {

/// Fraction of offered CBR slots lost across a set of recorded streams —
/// the aggregate-loss figure the coord-vs-PAB gate tracks.
double aggregate_loss(const std::vector<analysis::SlotStream>& streams) {
  double delivered = 0.0, offered = 0.0;
  for (const auto& s : streams) {
    for (const int d : s.delivered) delivered += d;
    offered += static_cast<double>(s.per_slot_max) *
               static_cast<double>(s.delivered.size());
  }
  return offered > 0.0 ? 1.0 - delivered / offered : 0.0;
}

}  // namespace

std::vector<vifi::bench::ValueEntry> vifi::bench::fig07_vifi_link() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const trace::Campaign campaign = vanlan_campaign(bed);
  const int live_trips = 6 * scale();

  // The coord tier rides the plain ViFi stack with the BS-side
  // ConnectivityManager enabled, its predictor seeded from the same
  // campaign the replay oracles use.
  core::SystemConfig coord_config = runtime::live_policy_config("ViFi");
  coord_config.coord.enabled = true;
  {
    std::vector<const trace::MeasurementTrace*> trips;
    trips.reserve(campaign.trips.size());
    for (const auto& t : campaign.trips) trips.push_back(&t);
    coord_config.coord.history = coord::fit_history(trips);
  }

  // Live CBR streams for ViFi, BRR and Coord, one stream per trip, run
  // trip-parallel; session definitions are applied to the recorded streams
  // afterwards. Seeds match the pre-runtime version of this bench.
  const std::vector<core::SystemConfig> systems{
      runtime::live_policy_config("ViFi"), runtime::live_policy_config("BRR"),
      coord_config};
  const auto streams = map_grid(
      systems.size(), static_cast<std::size_t>(live_trips),
      [&](std::size_t system, std::size_t trip) {
        return cbr_link_trip(bed, systems[system], 7000 + trip);
      });
  const auto& vifi_streams = streams[0];
  const auto& brr_streams = streams[1];
  const auto& coord_streams = streams[2];

  auto live_median = [](const std::vector<analysis::SlotStream>& streams,
                        const analysis::SessionDef& def) {
    std::vector<double> lengths;
    for (const auto& s : streams) {
      const auto ls = analysis::session_lengths_s(s, def);
      lengths.insert(lengths.end(), ls.begin(), ls.end());
    }
    return analysis::median_session_length(lengths);
  };
  auto replay_median = [&](const std::string& name,
                           const analysis::SessionDef& def) {
    return analysis::median_session_length(
        policy_session_lengths(campaign, name, def));
  };
  // One chart per session-definition sweep: def_at(x) is the definition
  // at each x value.
  auto print_sweep = [&](const std::string& title, const std::string& x_label,
                         const std::vector<double>& xs, auto def_at) {
    SeriesChart chart(title, x_label);
    chart.set_x(xs);
    std::vector<double> all, vifi, coord, best, brr;
    for (const double x : xs) {
      const analysis::SessionDef def = def_at(x);
      all.push_back(replay_median("AllBSes", def));
      best.push_back(replay_median("BestBS", def));
      vifi.push_back(live_median(vifi_streams, def));
      coord.push_back(live_median(coord_streams, def));
      brr.push_back(live_median(brr_streams, def));
    }
    chart.add_series("AllBSes", std::move(all));
    chart.add_series("ViFi", std::move(vifi));
    chart.add_series("Coord", std::move(coord));
    chart.add_series("BestBS", std::move(best));
    chart.add_series("BRR", std::move(brr));
    chart.set_precision(1);
    chart.print(std::cout);
  };

  print_sweep(
      "Figure 7(a) — median session length (s) vs averaging interval, "
      "ratio = 50%",
      "interval (s)", {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}, [](double iv) {
        analysis::SessionDef def;
        def.interval = Time::seconds(iv);
        return def;
      });
  std::cout << "\n";
  print_sweep(
      "Figure 7(b) — median session length (s) vs reception-ratio "
      "threshold, interval = 1 s",
      "ratio (%)", {10, 20, 30, 40, 50, 60, 70, 80, 90}, [](double r) {
        analysis::SessionDef def;
        def.min_ratio = r / 100.0;
        return def;
      });

  // Coord-vs-PAB aggregate loss over the recorded CBR streams: the coord
  // tier must not lose more of the offered load than plain PAB ViFi does.
  const double vifi_loss = aggregate_loss(vifi_streams);
  const double coord_loss = aggregate_loss(coord_streams);
  const double brr_loss = aggregate_loss(brr_streams);
  std::cout << "\nAggregate CBR loss: ViFi (PAB) "
            << TextTable::pct(vifi_loss, 2) << ", Coord "
            << TextTable::pct(coord_loss, 2) << ", BRR "
            << TextTable::pct(brr_loss, 2) << "\n";
  std::cout << "Paper shape check: ViFi above BestBS and approaching "
               "AllBSes across both sweeps; BRR far below.\n";

  return {
      {"Fig07/VanLAN/ViFi/aggregate_loss", vifi_loss, false},
      {"Fig07/VanLAN/Coord/aggregate_loss", coord_loss, false},
      {"Fig07/VanLAN/BRR/aggregate_loss", brr_loss, false},
      // Ratio of the two live twins; < 1 means coord loses less than PAB.
      {"Fig07/VanLAN/coord_vs_pab_loss_ratio",
       vifi_loss > 0.0 ? coord_loss / vifi_loss : 1.0, false}};
}
