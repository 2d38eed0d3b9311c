// Figure 3: (a-c) behaviour of BRR, BestBS and AllBSes along one example
// trip — regions of adequate connectivity vs interruptions — and (d) the
// CDF of time spent in uninterrupted sessions of a given length.
//
// Paper shape: similar total adequate path length for all three, but BRR
// has many interruptions, BestBS fewer, AllBSes fewest; median session
// length of AllBSes is >2x BestBS and >7x BRR.

#include <iostream>

#include "figures.h"

void vifi::bench::fig03_sessions() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const trace::Campaign campaign = vanlan_campaign(bed);
  const analysis::SessionDef def{};  // 50% in 1 s (§3.3)

  // (a)-(c): one example trip.
  const trace::MeasurementTrace& example = campaign.trips.front();
  std::cout << "Figure 3(a-c) — example trip, '#'=adequate (>=50% in 1s), "
               "'.'=interruption, ' '=no coverage\n\n";
  for (const std::string name : {"BRR", "BestBS", "AllBSes"}) {
    const auto stream = runtime::outcomes_to_stream(
        runtime::replay_trip(example, name, campaign));
    const auto tl = analysis::connectivity_timeline(stream, def);
    std::cout << name << " (" << tl.interruptions << " interruptions, "
              << TextTable::num(tl.adequate_s, 0) << "s adequate)\n  "
              << tl.strip << "\n\n";
  }

  // (d): CDF of time spent in sessions of a given length.
  SeriesChart chart(
      "Figure 3(d) — % of connected time in sessions of length <= x",
      "session length (s)");
  const std::vector<double> xs{5,  10, 20,  30,  45,  60, 90,
                               120, 150, 180, 210, 250};
  chart.set_x(xs);
  for (const std::string name : {"Sticky", "BRR", "BestBS", "AllBSes"}) {
    const auto lengths =
        policy_session_lengths(campaign, name, def);
    const Cdf cdf = analysis::session_time_cdf(lengths);
    std::vector<double> ys;
    ys.reserve(xs.size());
    for (double x : xs) ys.push_back(100.0 * cdf.fraction_at_or_below(x));
    chart.add_series(name, std::move(ys));
  }
  chart.set_precision(1);
  chart.print(std::cout);

  std::cout << "\nMedian session lengths (s):";
  for (const std::string name : {"Sticky", "BRR", "BestBS", "AllBSes"}) {
    const auto lengths = policy_session_lengths(campaign, name, def);
    std::cout << "  " << name << "="
              << TextTable::num(analysis::median_session_length(lengths), 1);
  }
  std::cout << "\nPaper shape check: median(AllBSes) > 2x median(BestBS) "
               "and >> median(BRR); Sticky worst.\n";
}
