// Figure 2: average number of packets delivered per day in VanLAN by the
// six handoff policies, as a function of the number of BSes.
//
// Paper shape: AllBSes > BestBS > History ~ RSSI ~ BRR >> Sticky, all
// within ~25% of AllBSes except Sticky; more BSes deliver more packets
// without flattening.
//
// The (#BSes x trial) grid runs cell-parallel (map_trips): each cell
// draws its BS subset from a stream derived from the cell index and
// replays all six policies against the shared (immutable) campaign, and
// the results come back in cell order — so the table is identical for any
// thread count.

#include <iostream>

#include "figures.h"
#include "util/rng.h"

void vifi::bench::fig02_aggregate() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const trace::Campaign campaign = vanlan_campaign(bed);
  const int days = campaign.days();

  const std::vector<int> bs_counts{4, 6, 8, 10, 11};
  const int trials = 10;
  const std::uint64_t subset_seed = 42;

  // Flatten the sweep: one cell per (#BSes, trial), holding its #BSes.
  // Full-roster rows have no subset randomness, so a single trial suffices
  // (§3.2 methodology).
  std::vector<int> cells;
  for (const int n_bs : bs_counts) {
    const int n_trials =
        n_bs >= static_cast<int>(bed.bs_ids().size()) ? 1 : trials;
    cells.insert(cells.end(), static_cast<std::size_t>(n_trials), n_bs);
  }

  // Per cell: packets delivered per day (thousands) for each replay
  // policy, in replay_policy_names() order.
  const auto& policies = runtime::replay_policy_names();
  const std::vector<std::vector<double>> per_cell =
      map_trips(cells.size(), [&](std::size_t i) {
        // Random subset of the given size ("average of ten trials using
        // randomly selected subset of BSes"), drawn from a per-cell stream.
        Rng subset_rng(runtime::mix_seed(subset_seed, i));
        const auto pick = subset_rng.sample(
            static_cast<int>(bed.bs_ids().size()), cells[i]);
        std::vector<sim::NodeId> subset;
        subset.reserve(pick.size());
        for (const int b : pick)
          subset.push_back(bed.bs_ids()[static_cast<std::size_t>(b)]);

        trace::Campaign filtered;
        filtered.testbed = campaign.testbed;
        for (const auto& trip : campaign.trips)
          filtered.trips.push_back(
              scenario::filter_to_bs_subset(trip, subset));

        std::vector<double> per_day;
        for (const auto& name : policies) {
          std::int64_t delivered = 0;
          for (const auto& trip : filtered.trips)
            delivered += handoff::packets_delivered(
                runtime::replay_trip(trip, name, filtered));
          per_day.push_back(static_cast<double>(delivered) / days / 1000.0);
        }
        return per_day;
      });

  TextTable table("Figure 2 — packets delivered per day (thousands), VanLAN");
  std::vector<std::string> header{"#BSes"};
  header.insert(header.end(), policies.begin(), policies.end());
  table.set_header(std::move(header));

  for (const int n_bs : bs_counts) {
    std::vector<std::vector<double>> per_policy(policies.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i] != n_bs) continue;
      for (std::size_t p = 0; p < policies.size(); ++p)
        per_policy[p].push_back(per_cell[i][p]);
    }
    std::vector<std::string> row{std::to_string(n_bs)};
    for (const auto& values : per_policy) {
      const auto ci = mean_ci95(values);
      row.push_back(
          TextTable::num_ci((ci.lo + ci.hi) / 2.0, ci.half_width(), 1));
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::cout << "\nPaper shape check: AllBSes best; BestBS second; History/"
               "RSSI/BRR close behind (within ~25% of AllBSes); Sticky "
               "clearly worst; all rise with BS density.\n";
}
