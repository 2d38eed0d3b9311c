// Figure 6: the nature of losses.
//  (a) probability of losing packet i+k given packet i was lost (10 ms
//      probes from a single BS; sender rotates per trip);
//  (b) unconditional and conditional reception probabilities for a chosen
//      BS pair probed every 20 ms.
//
// Paper shape: P(loss_{i+k} | loss_i) starts far above the unconditional
// loss and decays towards it with k; after a loss on one path, the same
// path stays bad (P(A_{i+1}|!A_i) = 0.24 << P(A) = 0.75) while the other
// BS barely notices (P(B_{i+1}|!A_i) = 0.57 ~ P(B) = 0.67).

#include <iostream>

#include "analysis/burst.h"
#include "figures.h"
#include "scenario/burst_probe.h"

void vifi::bench::fig06_burstiness() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 6 * scale();

  // (a) Single-BS 10 ms probing, a different BS per trip.
  analysis::ProbeSeries merged;
  std::vector<double> uncond_per_trip;
  for (int trip = 0; trip < trips; ++trip) {
    const sim::NodeId bs =
        bed.bs_ids()[static_cast<std::size_t>(trip) % bed.bs_ids().size()];
    // in-range threshold 0.5: condition on probes taken under decent
    // coverage, so the curve isolates channel bursts rather than
    // out-of-range loss runs.
    const auto run = scenario::burst_probe_single(
        bed, bs, bed.trip_duration(), Time::millis(10),
        Rng(900 + static_cast<std::uint64_t>(trip)), 0.5);
    // Merge trips with an in-range gap so bursts never span trips.
    merged.received.insert(merged.received.end(), run.received.begin(),
                           run.received.end());
    merged.in_range.insert(merged.in_range.end(), run.in_range.begin(),
                           run.in_range.end());
    merged.received.push_back(true);
    merged.in_range.push_back(false);
    analysis::ProbeSeries single{run.received, run.in_range};
    uncond_per_trip.push_back(analysis::unconditional_loss(single));
  }

  const std::vector<int> lags{1,  2,   5,   10,  20,  50,  100,
                              200, 400, 800, 1200, 1600, 2000};
  const auto curve = analysis::conditional_loss_curve(
      merged, lags);
  const double uncond = analysis::unconditional_loss(merged);

  SeriesChart chart(
      "Figure 6(a) — P(loss of packet i+k | packet i lost), 10 ms probes",
      "k");
  std::vector<double> xs(lags.begin(), lags.end());
  chart.set_x(xs);
  chart.add_series("P(loss_{i+k} | loss_i)", curve);
  chart.add_series("unconditional",
                   std::vector<double>(lags.size(), uncond));
  chart.set_precision(3);
  chart.print(std::cout);

  // (b) Pair probing every 20 ms: two BSes on the same building cluster.
  const auto pair_run = scenario::burst_probe_pair(
      bed, bed.bs_ids()[0], bed.bs_ids()[1], bed.trip_duration() * 3.0,
      Time::millis(20), Rng(1234), 0.5);
  analysis::PairSeries series{pair_run.a_received, pair_run.b_received,
                              pair_run.both_in_range};
  const auto pc = analysis::pair_conditionals(series);

  TextTable table(
      "Figure 6(b) — reception probabilities, BS pair (A, B), 20 ms probes");
  table.set_header({"quantity", "value"});
  table.add_row({"P(A)", TextTable::num(pc.p_a, 2)});
  table.add_row({"P(A_{i+1} | !A_i)",
                 TextTable::num(pc.p_a_next_after_a_loss, 2)});
  table.add_row({"P(B_{i+1} | !A_i)",
                 TextTable::num(pc.p_b_next_after_a_loss, 2)});
  table.add_row({"P(B)", TextTable::num(pc.p_b, 2)});
  table.add_row({"P(B_{i+1} | !B_i)",
                 TextTable::num(pc.p_b_next_after_b_loss, 2)});
  table.add_row({"P(A_{i+1} | !B_i)",
                 TextTable::num(pc.p_a_next_after_b_loss, 2)});
  std::cout << "\n";
  table.print(std::cout);

  std::cout << "\nPaper shape check: the conditional curve starts several "
               "times above the unconditional loss and decays with k; "
               "same-path conditionals collapse while cross-path "
               "conditionals stay near unconditional.\n";
}
