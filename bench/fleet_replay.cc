// Multi-bus trace replay: the §5.x DieselNet benches, fleet-scale.
//
// The paper replays logged bus trips through the live ViFi stack (§5.1);
// this bench does it for whole fleets, from both kinds of catalog
// TraceForge can produce:
//
//  * real   — a recorded V-bus campaign written as a TraceCatalog;
//  * synth  — V-bus traces synthesized from a model fitted on the
//             recorded 16-bus campaign (tracegen::fit_model/synthesize).
//
// For V in {1, 2, 4, 8, 16}, every vehicle runs the §5.2 CBR probe
// workload over the fleet loss schedule built straight from its catalog.
// The sweep rides the parallel runtime's trace_sets axis and the bench
// re-runs itself single-threaded to prove the output is byte-identical
// for any thread count (the acceptance property of the replay layer).
//
// With --json PATH the delivery curve is written as value entries in the
// google-benchmark shape; CI merges them into BENCH.json so the curve is
// gated against bench/baseline.json. All values are deterministic
// functions of the committed seeds — they transfer across machines.
//
// City-scale tiers (the large-fleet CI job):
//
//   --large   Synthetic V in {64, 256} catalogs replayed through the
//             *streaming* sharded executor (runtime::run_point_sharded):
//             trip groups stream from disk one group per worker instead
//             of the whole catalog sitting in memory. Each point runs on
//             8 workers and again through run_point (one inline worker);
//             the two outputs must be byte-identical.
//             With --json the delivery curve is written for the
//             bench_compare gate (baseline_large.json).
//
//   --v1024   Completion check (large-fleet CI job): one synthetic
//             1024-bus trip group through the sharded executor.
//             Completion is the bar; nothing is gated.

#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/runner.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/synth.h"

using namespace vifi;
using namespace vifi::bench;

namespace {

constexpr const char* kTestbed = "DieselNet-Ch1";
const std::vector<int> kFleets{1, 2, 4, 8, 16};
constexpr double kTripSeconds = 60.0;

trace::Campaign record_fleet(int vehicles, std::uint64_t seed) {
  const scenario::Testbed bed = runtime::make_testbed(kTestbed, vehicles);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(kTripSeconds);
  cfg.seed = seed;
  cfg.log_probes = false;  // DieselNet vehicles log beacons only (§2.2)
  return scenario::generate_campaign(bed, cfg);
}

struct Cell {
  double delivery_rate = 0.0;
  double aggregate_per_day = 0.0;
  double jain_delivery = 1.0;
  double min_vehicle_rate = 0.0;
  int replicates = 0;
};

/// Synthesizes a V-bus catalog (fitted on the recorded 16-bus campaign)
/// under \p root and returns one catalog-replay point for it.
runtime::ExperimentPoint synth_point(const tracegen::TraceModel& model,
                                     const std::filesystem::path& root,
                                     int vehicles, double trip_seconds,
                                     std::size_t index) {
  tracegen::SynthesisSpec synth;
  synth.vehicles = vehicles;
  synth.trip_duration = Time::seconds(trip_seconds);
  synth.seed = 606;
  const std::string dir =
      (root / ("synth_v" + std::to_string(vehicles))).string();
  tracegen::write_catalog(dir, "synth_v" + std::to_string(vehicles),
                          tracegen::synthesize_fleet(model, synth));

  runtime::ExperimentSpec spec;
  spec.name = "fleet_replay_large";
  spec.grid.testbeds = {kTestbed};
  spec.grid.fleet_sizes = {vehicles};
  spec.grid.trace_sets = {dir};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  runtime::ExperimentPoint p = spec.enumerate().front();
  p.index = index;
  return p;
}

int run_large(const std::string& json_path) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "vifi_fleet_replay_large";
  std::filesystem::remove_all(root);
  const tracegen::TraceModel model =
      tracegen::fit_model(record_fleet(16, 20080605));
  constexpr double kLargeTripSeconds = 20.0;
  std::vector<runtime::ExperimentPoint> points;
  points.reserve(2);
  for (const int v : {64, 256})
    points.push_back(
        synth_point(model, root, v, kLargeTripSeconds, points.size()));

  // Two executions per point: sharded on 8 workers, and run_point (the
  // same executor on one inline worker). Byte-identity is the acceptance
  // property — trip sharding changes memory behaviour, never results.
  const runtime::Runner pool8({.threads = 8});
  runtime::ResultSink sharded8, sharded1;
  for (const auto& p : points) {
    try {
      sharded8.add(runtime::run_point_sharded(p, pool8));
      sharded1.add(runtime::run_point(p));
    } catch (const std::exception& ex) {
      std::cerr << kTestbed << " V=" << p.fleet_size << ": " << ex.what()
                << "\n";
      std::filesystem::remove_all(root);
      return 1;
    }
  }
  const bool thread_invariant = sharded8.to_json() == sharded1.to_json() &&
                                sharded8.to_csv() == sharded1.to_csv();

  TextTable table("City-scale replay — " + std::string(kTestbed) +
                  ", streamed synthetic catalogs, sharded trips");
  table.set_header({"V", "delivery", "jain(delivery)", "min veh delivery"});
  std::vector<ValueEntry> entries;
  for (const auto& r : sharded8.ordered()) {
    table.add_row({std::to_string(r.fleet),
                   TextTable::pct(r.metrics.at("delivery_rate"), 1),
                   TextTable::num(r.metrics.at("fairness_jain_delivery"), 3),
                   TextTable::pct(r.metrics.at("per_vehicle_delivery_min"),
                                  1)});
    const std::string prefix = "FleetReplayLarge/" + std::string(kTestbed) +
                               "/V" + std::to_string(r.fleet) + "/";
    entries.push_back(
        {prefix + "delivery_rate", r.metrics.at("delivery_rate"), true});
    entries.push_back({prefix + "jain_delivery",
                       r.metrics.at("fairness_jain_delivery"), true});
  }
  table.print(std::cout);
  std::cout << "\nsharded thread-count determinism (8 vs 1): "
            << (thread_invariant ? "OK" : "FAILED") << "\n";

  int status = thread_invariant ? 0 : 1;
  if (!json_path.empty())
    status |= write_value_entries(json_path, "fleet_replay", entries,
                                  "large replay curve");
  std::filesystem::remove_all(root);
  return status;
}

int run_v1024() {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "vifi_fleet_replay_v1024";
  std::filesystem::remove_all(root);
  const tracegen::TraceModel model =
      tracegen::fit_model(record_fleet(16, 20080605));
  const runtime::ExperimentPoint point =
      synth_point(model, root, 1024, 10.0, 0);
  try {
    const runtime::PointResult r =
        runtime::run_point_sharded(point, runtime::Runner({.threads = 0}));
    std::cout << "V=1024 streamed replay (10 s trip): delivery "
              << TextTable::pct(r.metrics.at("delivery_rate"), 1)
              << ", jain(delivery) "
              << TextTable::num(r.metrics.at("fairness_jain_delivery"), 3)
              << "\nV=1024 completion check: OK\n";
  } catch (const std::exception& ex) {
    std::cerr << "V=1024: " << ex.what() << "\n";
    std::filesystem::remove_all(root);
    return 1;
  }
  std::filesystem::remove_all(root);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool large = false, v1024 = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--large") {
      large = true;
    } else if (arg == "--v1024") {
      v1024 = true;
    } else {
      std::cerr << "Usage: " << argv[0]
                << " [--json PATH] [--large] [--v1024]\n";
      return 2;
    }
  }
  if (v1024) return run_v1024();
  if (large) return run_large(json_path);

  // --- Build the catalog pairs: recorded V-bus trips, and V-bus trips
  // synthesized from the model fitted on the recorded 16-bus campaign.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "vifi_fleet_replay";
  std::filesystem::remove_all(root);
  const trace::Campaign recorded16 = record_fleet(16, 20080605);
  const tracegen::TraceModel model = tracegen::fit_model(recorded16);

  const std::vector<std::string> sources{"real", "synth"};
  std::map<std::pair<int, std::string>, std::string> catalog_dirs;
  for (const int v : kFleets) {
    const std::string real_dir =
        (root / ("real_v" + std::to_string(v))).string();
    tracegen::write_catalog(real_dir, "real_v" + std::to_string(v),
                            record_fleet(v, 20080605));
    catalog_dirs[{v, "real"}] = real_dir;

    tracegen::SynthesisSpec synth;
    synth.vehicles = v;
    synth.trip_duration = Time::seconds(kTripSeconds);
    synth.seed = 606;
    const std::string synth_dir =
        (root / ("synth_v" + std::to_string(v))).string();
    tracegen::write_catalog(synth_dir, "synth_v" + std::to_string(v),
                            tracegen::synthesize_fleet(model, synth));
    catalog_dirs[{v, "synth"}] = synth_dir;
  }

  // --- One replay point per (V, source, replicate seed), all sharded
  // over one pool. Each (V, source) is its own mini-grid because the
  // catalog must match the point's fleet size.
  std::vector<runtime::ExperimentPoint> points;
  for (const int v : kFleets) {
    for (const std::string& source : sources) {
      runtime::ExperimentSpec spec;
      spec.name = "fleet_replay";
      spec.grid.testbeds = {kTestbed};
      spec.grid.fleet_sizes = {v};
      spec.grid.trace_sets = {catalog_dirs.at({v, source})};
      spec.grid.policies = {"ViFi"};
      spec.grid.seeds = {1};
      for (int s = 2; s <= scale(); ++s)
        spec.grid.seeds.push_back(static_cast<std::uint64_t>(s));
      spec.workload = "cbr";
      for (runtime::ExperimentPoint p : spec.enumerate()) {
        p.index = points.size();
        points.push_back(std::move(p));
      }
    }
  }

  const runtime::Runner pool({.threads = 0});
  const runtime::ResultSink sink = pool.run(points, runtime::run_point);
  if (sink.any_errors()) {
    for (const auto& r : sink.ordered())
      if (!r.error.empty())
        std::cerr << r.testbed << " V=" << r.fleet << " " << r.trace_set
                  << ": " << r.error << "\n";
    std::filesystem::remove_all(root);
    return 1;
  }

  // The acceptance property: the replay sweep is a pure function of its
  // points — byte-identical for any thread count.
  const runtime::ResultSink solo =
      runtime::Runner({.threads = 1}).run(points, runtime::run_point);
  const bool deterministic = sink.to_json() == solo.to_json() &&
                             sink.to_csv() == solo.to_csv();

  // Classify each point by exact catalog directory (substring matching on
  // the path would misfire on e.g. a TMPDIR containing "synth").
  std::map<std::string, std::string> source_of_dir;
  for (const auto& [key, dir] : catalog_dirs) source_of_dir[dir] = key.second;
  std::map<std::pair<int, std::string>, Cell> cells;
  for (const auto& r : sink.ordered()) {
    const std::string& source = source_of_dir.at(r.trace_set);
    Cell& c = cells[{r.fleet, source}];
    const int n = ++c.replicates;
    auto fold = [n](double& mean, double x) { mean += (x - mean) / n; };
    fold(c.delivery_rate, r.metrics.at("delivery_rate"));
    fold(c.aggregate_per_day, r.metrics.at("packets_per_day"));
    if (r.fleet > 1) {
      fold(c.jain_delivery, r.metrics.at("fairness_jain_delivery"));
      fold(c.min_vehicle_rate, r.metrics.at("per_vehicle_delivery_min"));
    } else {
      fold(c.jain_delivery, 1.0);
      fold(c.min_vehicle_rate, r.metrics.at("delivery_rate"));
    }
  }

  TextTable table("Fleet replay — " + std::string(kTestbed) +
                  ", live ViFi over TraceCatalogs, 60 s trips");
  table.set_header({"V", "catalog", "delivery", "pkts/day",
                    "pkts/day per veh", "min veh delivery",
                    "jain(delivery)"});
  for (const int v : kFleets) {
    for (const std::string& source : sources) {
      const Cell& c = cells.at({v, source});
      table.add_row({std::to_string(v), source,
                     TextTable::pct(c.delivery_rate, 1),
                     TextTable::num(c.aggregate_per_day, 0),
                     TextTable::num(c.aggregate_per_day / v, 0),
                     TextTable::pct(c.min_vehicle_rate, 1),
                     TextTable::num(c.jain_delivery, 3)});
    }
  }
  table.print(std::cout);

  std::cout << "\nthread-count determinism: "
            << (deterministic ? "OK — replay output is byte-identical for "
                                "any worker count"
                              : "FAILED — parallel and single-thread "
                                "outputs differ")
            << "\n";

  // --- Coord-vs-PAB twin on the recorded V=4 catalog: the coordination
  // axis replays the identical trips, with coord's predictor history
  // fitted from that same catalog (the executor's catalog-driven path).
  runtime::ExperimentSpec cspec;
  cspec.name = "fleet_replay_coord";
  cspec.grid.testbeds = {kTestbed};
  cspec.grid.fleet_sizes = {4};
  cspec.grid.trace_sets = {catalog_dirs.at({4, "real"})};
  cspec.grid.policies = {"ViFi"};
  cspec.grid.coordinations = {"pab", "coord"};
  cspec.grid.seeds = {1};
  for (int s = 2; s <= scale(); ++s)
    cspec.grid.seeds.push_back(static_cast<std::uint64_t>(s));
  cspec.workload = "cbr";
  const runtime::ResultSink csink = pool.run(cspec);
  if (csink.any_errors()) {
    for (const auto& r : csink.ordered())
      if (!r.error.empty())
        std::cerr << "coord twin (" << r.coordination << "): " << r.error
                  << "\n";
    std::filesystem::remove_all(root);
    return 1;
  }
  double pab_delivery = 0.0, coord_delivery = 0.0;
  int pab_n = 0, coord_n = 0;
  for (const auto& r : csink.ordered()) {
    if (r.coordination == "coord")
      coord_delivery += (r.metrics.at("delivery_rate") - coord_delivery) /
                        ++coord_n;
    else
      pab_delivery +=
          (r.metrics.at("delivery_rate") - pab_delivery) / ++pab_n;
  }
  const double coord_delivery_ratio =
      pab_delivery > 0.0 ? coord_delivery / pab_delivery : 1.0;
  std::cout << "V=4 real-catalog coord twin: delivery "
            << TextTable::pct(coord_delivery, 1) << " (PAB "
            << TextTable::pct(pab_delivery, 1) << ", ratio "
            << TextTable::num(coord_delivery_ratio, 3) << ")\n";

  int status = deterministic ? 0 : 1;
  if (!json_path.empty()) {
    std::vector<ValueEntry> entries;
    for (const int v : kFleets) {
      for (const std::string& source : sources) {
        const Cell& c = cells.at({v, source});
        const std::string prefix = "FleetReplay/" + std::string(kTestbed) +
                                   "/V" + std::to_string(v) + "/" + source +
                                   "/";
        entries.push_back({prefix + "delivery_rate", c.delivery_rate, true});
        entries.push_back({prefix + "jain_delivery", c.jain_delivery, true});
      }
    }
    entries.push_back({"FleetReplay/" + std::string(kTestbed) +
                           "/V4/real/coord_delivery_ratio",
                       coord_delivery_ratio, true});
    status |= write_value_entries(json_path, "fleet_replay", entries,
                                  "replay curve");
  }

  std::filesystem::remove_all(root);
  return status;
}
