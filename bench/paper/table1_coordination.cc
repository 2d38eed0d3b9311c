// Table 1: detailed statistics on the behaviour of ViFi's coordination in
// VanLAN, from the TCP experiments — rows A1-A3 (auxiliary coverage),
// B1-B3 (successful transmissions and false positives), C1-C4 (failed
// transmissions, coverage, false negatives, relay success).
//
// Paper values for orientation (up / down): A1 5/5, A2 1.7/3.6,
// A3 0.6/2.5, B1 67%/74%, B2 25%/33%, B3 1.5/1.5, C1 33%/26%, C2 66%/98%,
// C3 10%/34%, C4 100%/50%.

#include <iostream>

#include "figures.h"

void vifi::bench::table1_coordination() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 4 * scale();

  struct Coordination {
    core::CoordinationSummary up, down;
  };
  const std::vector<Coordination> runs =
      map_trips(static_cast<std::size_t>(trips), [&](std::size_t trip) {
        scenario::LiveTrip live(bed, runtime::live_policy_config("ViFi"),
                                13000 + trip);
        tcp_pair_trip(live, bed.trip_duration());
        const auto& stats = live.system().stats();
        return Coordination{stats.coordination(net::Direction::Upstream),
                            stats.coordination(net::Direction::Downstream)};
      });

  // Attempt-weighted averages across trips.
  auto avg = [&](auto dir, auto field) {
    double num = 0.0, den = 0.0;
    for (const auto& run : runs) {
      const core::CoordinationSummary& s = run.*dir;
      num += field(s) * static_cast<double>(s.attempts);
      den += static_cast<double>(s.attempts);
    }
    return den > 0.0 ? num / den : 0.0;
  };
  using S = core::CoordinationSummary;
  auto row = [&](const char* id, const char* label, auto field,
                 bool pct) {
    const double u = avg(&Coordination::up, field);
    const double d = avg(&Coordination::down, field);
    return std::vector<std::string>{
        id, label, pct ? TextTable::pct(u) : TextTable::num(u, 1),
        pct ? TextTable::pct(d) : TextTable::num(d, 1)};
  };

  TextTable table("Table 1 — behaviour of ViFi in VanLAN (TCP workload)");
  table.set_header({"row", "statistic", "upstream", "downstream"});
  table.add_row(row("A1", "median number of auxiliary BSes",
                    [](const S& s) { return s.median_designated_aux; },
                    false));
  table.add_row(row("A2", "avg auxiliaries hearing a source tx",
                    [](const S& s) { return s.avg_aux_heard; }, false));
  table.add_row(row("A3", "avg auxiliaries hearing tx but not ACK",
                    [](const S& s) { return s.avg_aux_heard_no_ack; },
                    false));
  table.add_row(row("B1", "source tx that reach the destination",
                    [](const S& s) { return s.frac_src_tx_reached_dst; },
                    true));
  table.add_row(row("B2", "relays for successful tx (false positives)",
                    [](const S& s) { return s.false_positive_rate; }, true));
  table.add_row(row("B3", "avg relays when a false positive occurs",
                    [](const S& s) { return s.avg_relays_when_fp; }, false));
  table.add_row(row("C1", "source tx that miss the destination",
                    [](const S& s) { return s.frac_src_tx_failed; }, true));
  table.add_row(row("C2", "failed tx overheard by >=1 auxiliary",
                    [](const S& s) { return s.frac_failed_with_aux_cover; },
                    true));
  table.add_row(row("C3", "failed tx with zero relays (false negatives)",
                    [](const S& s) { return s.false_negative_rate; }, true));
  table.add_row(row("C4", "relayed packets that reach the destination",
                    [](const S& s) { return s.frac_relays_reached_dst; },
                    true));
  table.print(std::cout);

  std::cout << "\nPaper shape check: several auxiliaries per tx with only "
               "~1-3 hearing it; moderate false positives (~25-35%), low "
               "upstream false negatives; upstream relays always arrive "
               "(backplane), downstream relays ~half.\n";
}
