// Contention-knee study: per-vehicle airtime fairness as the fleet grows.
//
// Zheng et al. show contention collapses per-client throughput well before
// the aggregate saturates; this bench locates that knee for the live ViFi
// stack. For V in {1, 2, 4, 8, 16} vehicles riding VanLAN and
// DieselNet-Ch1, every vehicle runs the §5.2 CBR probe workload on the
// shared medium, and the medium's airtime ledger yields Jain's fairness
// index over the fleet plus the infrastructure/client occupancy split. The
// knee is the first V where mean per-vehicle delivery falls below 90% of
// the single-vehicle value while aggregate goodput is still not shrinking.
//
// Runs on the parallel runtime's fleet axis (byte-reproducible for any
// thread count; VIFI_BENCH_SCALE multiplies replicate seeds). With
// --json PATH the fairness curve is written as value entries in the
// google-benchmark JSON shape, which tools/bench_compare.py gates against
// bench/baseline.json — CI merges them into BENCH.json so the curve is
// tracked like any other benchmark.

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/runner.h"

using namespace vifi;
using namespace vifi::bench;

namespace {

struct Cell {
  double aggregate_per_day = 0.0;
  double delivery_rate = 0.0;
  double jain_delivery = 1.0;
  double jain_airtime = 1.0;
  double min_vehicle_rate = 0.0;
  double infra_airtime_s = 0.0;
  double vehicle_airtime_s = 0.0;
  int replicates = 0;

  double per_vehicle_per_day(int fleet) const {
    return aggregate_per_day / fleet;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "Usage: " << argv[0] << " [--json PATH]\n";
      return 2;
    }
  }

  runtime::ExperimentSpec spec;
  spec.name = "fleet_contention";
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.fleet_sizes = {1, 2, 4, 8, 16};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  for (int s = 2; s <= scale(); ++s)
    spec.grid.seeds.push_back(static_cast<std::uint64_t>(s));
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(60.0);
  spec.workload = "cbr";

  const runtime::Runner runner({.threads = 0});
  const runtime::ResultSink sink = runner.run(spec);
  if (sink.any_errors()) {
    for (const auto& r : sink.ordered())
      if (!r.error.empty())
        std::cerr << r.testbed << " V=" << r.fleet << ": " << r.error << "\n";
    return 1;
  }

  // Mean over replicate seeds per (testbed, fleet) cell. Fleet-1 points
  // carry no fairness metrics (their output is pinned byte-identical to
  // the pre-fairness sweeps); one vehicle is perfectly fair by definition.
  std::map<std::pair<std::string, int>, Cell> cells;
  for (const auto& r : sink.ordered()) {
    Cell& c = cells[{r.testbed, r.fleet}];
    const int n = ++c.replicates;
    auto fold = [n](double& mean, double x) { mean += (x - mean) / n; };
    fold(c.aggregate_per_day, r.metrics.at("packets_per_day"));
    fold(c.delivery_rate, r.metrics.at("delivery_rate"));
    if (r.fleet > 1) {
      fold(c.jain_delivery, r.metrics.at("fairness_jain_delivery"));
      fold(c.jain_airtime, r.metrics.at("fairness_jain_airtime"));
      fold(c.min_vehicle_rate, r.metrics.at("per_vehicle_delivery_min"));
      fold(c.infra_airtime_s, r.metrics.at("airtime_infra_s"));
      fold(c.vehicle_airtime_s, r.metrics.at("airtime_vehicle_s"));
    } else {
      fold(c.jain_delivery, 1.0);
      fold(c.jain_airtime, 1.0);
      fold(c.min_vehicle_rate, r.metrics.at("delivery_rate"));
    }
  }

  TextTable table("Fleet contention — fairness knee, live ViFi, 60 s trips");
  table.set_header({"testbed", "V", "pkts/day (all)", "pkts/day per veh",
                    "delivery", "min veh delivery", "jain(delivery)",
                    "jain(airtime)", "infra/veh air (s)"});
  for (const auto& bed : spec.grid.testbeds) {
    for (const int v : spec.grid.fleet_sizes) {
      const Cell& c = cells.at({bed, v});
      table.add_row({bed, std::to_string(v),
                     TextTable::num(c.aggregate_per_day, 0),
                     TextTable::num(c.per_vehicle_per_day(v), 0),
                     TextTable::pct(c.delivery_rate, 1),
                     TextTable::pct(c.min_vehicle_rate, 1),
                     TextTable::num(c.jain_delivery, 3),
                     TextTable::num(c.jain_airtime, 3),
                     TextTable::num(c.infra_airtime_s, 1) + " / " +
                         TextTable::num(c.vehicle_airtime_s, 1)});
    }
  }
  table.print(std::cout);

  for (const auto& bed : spec.grid.testbeds) {
    const double solo = cells.at({bed, 1}).per_vehicle_per_day(1);
    int knee = 0;
    double prev_aggregate = cells.at({bed, 1}).aggregate_per_day;
    for (const int v : spec.grid.fleet_sizes) {
      if (v == 1) continue;
      const Cell& c = cells.at({bed, v});
      if (c.per_vehicle_per_day(v) < 0.9 * solo &&
          c.aggregate_per_day >= prev_aggregate) {
        knee = v;
        break;
      }
      prev_aggregate = c.aggregate_per_day;
    }
    if (knee != 0)
      std::cout << bed << ": contention knee at V=" << knee
                << " — per-vehicle delivery down >10% from solo while "
                   "aggregate goodput still grows.\n";
    else
      std::cout << bed << ": no contention knee in V <= 16 (per-vehicle "
                   "delivery held within 10% of solo, or aggregate "
                   "collapsed first).\n";
  }

  // --- Coord-vs-PAB twin at the V=4 VanLAN cell: same trips, coordination
  // axis on, so the only delta is the BS-side ConnectivityManager. The
  // pre-existing curve above stays untouched (and so does its baseline).
  runtime::ExperimentSpec cspec;
  cspec.name = "fleet_contention_coord";
  cspec.grid.testbeds = {"VanLAN"};
  cspec.grid.fleet_sizes = {4};
  cspec.grid.policies = {"ViFi"};
  cspec.grid.coordinations = {"pab", "coord"};
  cspec.grid.seeds = spec.grid.seeds;
  cspec.days = 1;
  cspec.trips_per_day = 1;
  cspec.trip_duration = Time::seconds(60.0);
  cspec.workload = "cbr";
  const runtime::ResultSink csink = runner.run(cspec);
  if (csink.any_errors()) {
    for (const auto& r : csink.ordered())
      if (!r.error.empty())
        std::cerr << "coord twin (" << r.coordination << "): " << r.error
                  << "\n";
    return 1;
  }
  struct Twin {
    double delivery = 0.0;
    double jain = 1.0;
    int n = 0;
  };
  std::map<std::string, Twin> twins;
  for (const auto& r : csink.ordered()) {
    Twin& t = twins[r.coordination];
    const int n = ++t.n;
    t.delivery += (r.metrics.at("delivery_rate") - t.delivery) / n;
    t.jain += (r.metrics.at("fairness_jain_delivery") - t.jain) / n;
  }
  const Twin& pab = twins.at("pab");
  const Twin& coord = twins.at("coord");
  const double coord_delivery_ratio =
      pab.delivery > 0.0 ? coord.delivery / pab.delivery : 1.0;
  std::cout << "\nVanLAN V=4 coord twin: delivery "
            << TextTable::pct(coord.delivery, 1) << " (PAB "
            << TextTable::pct(pab.delivery, 1) << ", ratio "
            << TextTable::num(coord_delivery_ratio, 3) << "), jain "
            << TextTable::num(coord.jain, 3) << " (PAB "
            << TextTable::num(pab.jain, 3) << ")\n";

  if (!json_path.empty()) {
    std::vector<ValueEntry> entries;
    for (const auto& bed : spec.grid.testbeds) {
      for (const int v : spec.grid.fleet_sizes) {
        const Cell& c = cells.at({bed, v});
        const std::string prefix =
            "FleetContention/" + bed + "/V" + std::to_string(v) + "/";
        entries.push_back({prefix + "jain_delivery", c.jain_delivery, true});
        entries.push_back({prefix + "jain_airtime", c.jain_airtime, true});
        entries.push_back({prefix + "per_vehicle_pkts_per_day",
                           c.per_vehicle_per_day(v), true});
      }
    }
    entries.push_back({"FleetContention/VanLAN/V4/coord_delivery_ratio",
                       coord_delivery_ratio, true});
    entries.push_back(
        {"FleetContention/VanLAN/V4/coord_jain_delivery", coord.jain, true});
    return write_value_entries(json_path, "fleet_contention", entries,
                               "fairness curve");
  }
  return 0;
}
