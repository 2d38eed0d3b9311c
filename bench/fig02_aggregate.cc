// Figure 2: average number of packets delivered per day in VanLAN by the
// six handoff policies, as a function of the number of BSes.
//
// Paper shape: AllBSes > BestBS > History ~ RSSI ~ BRR >> Sticky, all
// within ~25% of AllBSes except Sticky; more BSes deliver more packets
// without flattening.
//
// The (#BSes x trial) grid runs on the runtime::Runner pool: each point
// draws its BS subset from a stream derived from the point index, replays
// all six policies against the shared (immutable) campaign, and the sink
// restores grid order — so the table is identical for any thread count.

#include <iostream>

#include "bench_util.h"
#include "runtime/runner.h"
#include "util/rng.h"

using namespace vifi;
using namespace vifi::bench;

int main() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const trace::Campaign campaign = vanlan_campaign(bed);
  const int days = campaign.days();

  const std::vector<int> bs_counts{4, 6, 8, 10, 11};
  const int trials = 10;
  const std::uint64_t subset_seed = 42;

  // Flatten the sweep: one point per (#BSes, trial). Full-roster rows have
  // no subset randomness, so a single trial suffices (§3.2 methodology).
  struct Cell {
    int n_bs;
    int trial;
  };
  std::vector<Cell> cells;
  for (const int n_bs : bs_counts) {
    const int n_trials =
        n_bs >= static_cast<int>(bed.bs_ids().size()) ? 1 : trials;
    for (int trial = 0; trial < n_trials; ++trial)
      cells.push_back({n_bs, trial});
  }

  const runtime::Runner runner({.threads = 0});
  const runtime::ResultSink sink =
      runner.run_indexed(cells.size(), [&](std::size_t i) {
        const Cell& cell = cells[i];
        // Random subset of the given size ("average of ten trials using
        // randomly selected subset of BSes"), drawn from a per-point stream.
        Rng subset_rng(runtime::mix_seed(subset_seed, i));
        const auto pick = subset_rng.sample(
            static_cast<int>(bed.bs_ids().size()), cell.n_bs);
        std::vector<sim::NodeId> subset;
        subset.reserve(pick.size());
        for (const int b : pick)
          subset.push_back(bed.bs_ids()[static_cast<std::size_t>(b)]);

        trace::Campaign filtered;
        filtered.testbed = campaign.testbed;
        for (const auto& trip : campaign.trips)
          filtered.trips.push_back(
              scenario::filter_to_bs_subset(trip, subset));

        runtime::PointResult r;
        r.index = i;
        r.testbed = campaign.testbed;
        r.seed = subset_seed;
        r.metrics["n_bs"] = cell.n_bs;
        for (const auto& name : runtime::replay_policy_names()) {
          std::int64_t delivered = 0;
          for (const auto& trip : filtered.trips)
            delivered += handoff::packets_delivered(
                runtime::replay_trip(trip, name, filtered));
          r.metrics[name] = static_cast<double>(delivered) / days / 1000.0;
        }
        return r;
      });

  if (sink.any_errors()) {
    for (const auto& r : sink.ordered())
      if (!r.error.empty())
        std::cerr << "point " << r.index << " failed: " << r.error << "\n";
    return 1;
  }

  TextTable table("Figure 2 — packets delivered per day (thousands), VanLAN");
  std::vector<std::string> header{"#BSes"};
  for (const auto& name : runtime::replay_policy_names())
    header.push_back(name);
  table.set_header(std::move(header));

  const auto results = sink.ordered();
  for (const int n_bs : bs_counts) {
    std::map<std::string, std::vector<double>> per_policy;
    for (const auto& r : results) {
      if (static_cast<int>(r.metrics.at("n_bs")) != n_bs) continue;
      for (const auto& name : runtime::replay_policy_names())
        per_policy[name].push_back(r.metrics.at(name));
    }
    std::vector<std::string> row{std::to_string(n_bs)};
    for (const auto& name : runtime::replay_policy_names()) {
      const auto ci = mean_ci95(per_policy[name]);
      row.push_back(
          TextTable::num_ci((ci.lo + ci.hi) / 2.0, ci.half_width(), 1));
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::cout << "\nPaper shape check: AllBSes best; BestBS second; History/"
               "RSSI/BRR close behind (within ~25% of AllBSes); Sticky "
               "clearly worst; all rise with BS density.\n";
  return 0;
}
