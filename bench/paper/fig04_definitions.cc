// Figure 4: median session length in VanLAN as a function of (a) the
// averaging interval defining adequate connectivity (at 50% reception) and
// (b) the minimum reception ratio (at a 1 s interval).
//
// Paper shape: with lax definitions all policies except Sticky look alike;
// as requirements tighten, the advantage of multi-BS (AllBSes) grows and
// BRR collapses first.

#include <iostream>

#include "figures.h"

void vifi::bench::fig04_definitions() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const trace::Campaign campaign = vanlan_campaign(bed);
  const std::vector<std::string> policies{"AllBSes", "BestBS", "BRR",
                                          "Sticky"};

  {
    SeriesChart chart(
        "Figure 4(a) — median session length (s) vs averaging interval, "
        "reception ratio = 50%",
        "interval (s)");
    const std::vector<double> intervals{0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    chart.set_x(intervals);
    for (const auto& name : policies) {
      std::vector<double> ys;
      for (double iv : intervals) {
        analysis::SessionDef def;
        def.interval = Time::seconds(iv);
        def.min_ratio = 0.5;
        ys.push_back(analysis::median_session_length(
            policy_session_lengths(campaign, name, def)));
      }
      chart.add_series(name, std::move(ys));
    }
    chart.set_precision(1);
    chart.print(std::cout);
  }

  std::cout << "\n";

  {
    SeriesChart chart(
        "Figure 4(b) — median session length (s) vs reception-ratio "
        "threshold, interval = 1 s",
        "ratio (%)");
    const std::vector<double> ratios{10, 20, 30, 40, 50, 60, 70, 80, 90};
    chart.set_x(ratios);
    for (const auto& name : policies) {
      std::vector<double> ys;
      for (double r : ratios) {
        analysis::SessionDef def;
        def.min_ratio = r / 100.0;
        ys.push_back(analysis::median_session_length(
            policy_session_lengths(campaign, name, def)));
      }
      chart.add_series(name, std::move(ys));
    }
    chart.set_precision(1);
    chart.print(std::cout);
  }

  std::cout << "\nPaper shape check: curves converge at lax definitions "
               "(long intervals / low ratios) and fan out as requirements "
               "tighten, AllBSes on top, Sticky at the bottom.\n";
}
