// Parameter-sweep CLI over the runtime campaign executor: declare a
// (testbed x policy x seed) grid, shard it across a worker pool, and emit
// structured JSON/CSV results. The output is a pure function of the spec —
// byte-identical for any --threads value — so sweeps can be diffed, cached
// and resumed across machines.
//
// Example (the BS-density x policy grid from the README):
//   sweep --threads 4 --testbeds VanLAN,DieselNet-Ch1
//         --policies AllBSes,BestBS,BRR --seeds 1,2 --json sweep.json

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "util/table.h"

using namespace vifi;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Every item of a comma-separated flag value, parsed strictly.
template <class T>
std::vector<T> split_csv_numbers(const std::string& flag, const std::string& s,
                                 T lo = std::numeric_limits<T>::lowest()) {
  std::vector<T> out;
  for (const auto& item : split_csv(s))
    out.push_back(cli::parse_number<T>(flag, item, lo));
  return out;
}

int usage(const char* argv0) {
  std::cerr
      << "Usage: " << argv0 << " [options]\n"
      << "  --threads N         worker threads (default 4; 0 = hardware),\n"
         "                      split between points and each point's\n"
         "                      trips; output is byte-identical for any N\n"
      << "  --testbeds a,b      default VanLAN,DieselNet-Ch1\n"
      << "  --fleets a,b        vehicles per testbed, default 1\n"
      << "  --trace-sets d1,d2  TraceCatalog directories to replay as an\n"
         "                      extra axis (must match testbed + fleet);\n"
         "                      default none (stochastic campaigns)\n"
      << "  --policies a,b,c    replay: AllBSes/BestBS/History/RSSI/BRR/"
         "Sticky\n"
      << "                      cbr (live): ViFi/BRR/Diversity\n"
      << "                      default AllBSes,BestBS,BRR\n"
      << "  --coordination a,b  cbr (live) points: pab (vehicle-driven\n"
         "                      baseline) and/or coord (BS-side predictive\n"
         "                      ConnectivityManager); default none — the\n"
         "                      historical stack with no extra axis\n"
      << "  --seeds a,b         replicate seeds, default 1,2\n"
      << "  --days N            campaign days, default 1\n"
      << "  --trips N           trips per day, default 2\n"
      << "  --trip-seconds S    trip length; 0 = one full route lap\n"
      << "  --workload W        replay (default) or cbr\n"
      << "  --base-seed N       default 20080817\n"
      << "  --trace DIR         TripScope: spool every event of each point to\n"
         "                      DIR/point_NNNN.spool and its metrics registry\n"
         "                      to .metrics.json beside it; `tripscope\n"
         "                      export` renders a spool's .trace.json\n"
         "                      (Chrome/Perfetto) and .jsonl, `tripscope\n"
         "                      query` reads it\n"
      << "  --metrics a,b       TripScope: emit registered metrics as result\n"
         "                      columns (exact key or name summed over\n"
         "                      labels), e.g. mac.transmissions\n"
      << "  --cull              live (cbr) points: run the medium with\n"
         "                      spatial interference culling — the\n"
         "                      city-scale operating mode for large fleets\n"
      << "  --json PATH         write JSON here instead of stdout\n"
      << "  --csv PATH          also write CSV here\n"
      << "  --summary           print a per-point summary table to stderr\n"
      << "  --fairness          add per-vehicle fairness columns (Jain's\n"
      << "                      index, airtime split) to the summary table;\n"
      << "                      fleet-1 points show '-'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.policies = {"AllBSes", "BestBS", "BRR"};
  spec.grid.seeds = {1, 2};
  spec.days = 1;
  spec.trips_per_day = 2;

  int threads = 4;
  std::string json_path, csv_path;
  bool summary = false;
  bool fairness = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(usage(argv[0]));
        }
        return argv[++i];
      };
      if (arg == "--threads")
        threads = cli::parse_number(arg, value(), 0, 1024);
      else if (arg == "--testbeds") spec.grid.testbeds = split_csv(value());
      else if (arg == "--fleets")
        spec.grid.fleet_sizes = split_csv_numbers(arg, value(), 1);
      else if (arg == "--trace-sets") spec.grid.trace_sets = split_csv(value());
      else if (arg == "--policies") spec.grid.policies = split_csv(value());
      else if (arg == "--coordination")
        spec.grid.coordinations = split_csv(value());
      else if (arg == "--seeds")
        spec.grid.seeds = split_csv_numbers<std::uint64_t>(arg, value());
      else if (arg == "--days") spec.days = cli::parse_number(arg, value(), 0);
      else if (arg == "--trips")
        spec.trips_per_day = cli::parse_number(arg, value(), 0);
      else if (arg == "--trip-seconds")
        spec.trip_duration =
            Time::seconds(cli::parse_number(arg, value(), 0.0, 1e7));
      else if (arg == "--workload") spec.workload = value();
      else if (arg == "--base-seed")
        spec.base_seed = cli::parse_number<std::uint64_t>(arg, value());
      else if (arg == "--trace") spec.trace_dir = value();
      else if (arg == "--metrics") spec.metric_columns = split_csv(value());
      else if (arg == "--cull") spec.cull_medium = true;
      else if (arg == "--json") json_path = value();
      else if (arg == "--csv") csv_path = value();
      else if (arg == "--summary") summary = true;
      else if (arg == "--fairness") fairness = true;
      else return usage(argv[0]);
    }
  } catch (const cli::BadNumber& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }

  try {
    runtime::check_spec(spec);
  } catch (const std::runtime_error& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }

  const runtime::Runner runner({.threads = threads});
  std::cerr << "sweep: " << spec.grid.size() << " points ("
            << spec.grid.testbeds.size() << " testbeds x "
            << spec.grid.fleet_sizes.size() << " fleet sizes x "
            << spec.grid.policies.size() << " policies x "
            << spec.grid.seeds.size() << " seeds) on " << runner.threads()
            << " thread(s)\n";

  const runtime::ResultSink sink = runner.run(spec);

  if (summary) {
    // Fairness columns come from the fleet points' metrics; fleet-1 points
    // have none (their output is byte-identical to pre-fairness sweeps).
    auto metric_or_dash = [](const runtime::PointResult& r,
                             const std::string& key, int digits) {
      const auto it = r.metrics.find(key);
      return it == r.metrics.end() ? std::string("-")
                                   : TextTable::num(it->second, digits);
    };
    TextTable table("Sweep summary");
    std::vector<std::string> header{"testbed", "fleet",  "policy",
                                    "seed",    "delivery", "median sess",
                                    "pkts/day"};
    if (fairness) {
      header.insert(header.end(), {"jain(delivery)", "jain(airtime)",
                                   "infra air (s)", "vehicle air (s)"});
    }
    table.set_header(header);
    for (const auto& r : sink.ordered()) {
      if (!r.error.empty()) {
        std::vector<std::string> row{r.testbed, std::to_string(r.fleet),
                                     r.policy, std::to_string(r.seed),
                                     "error: " + r.error, "", ""};
        row.resize(header.size());
        table.add_row(row);
        continue;
      }
      std::vector<std::string> row{
          r.testbed, std::to_string(r.fleet), r.policy,
          std::to_string(r.seed),
          TextTable::pct(r.metrics.at("delivery_rate"), 1),
          TextTable::num(r.metrics.at("median_session_s"), 1) + " s",
          TextTable::num(r.metrics.at("packets_per_day"), 0)};
      if (fairness) {
        row.push_back(metric_or_dash(r, "fairness_jain_delivery", 3));
        row.push_back(metric_or_dash(r, "fairness_jain_airtime", 3));
        row.push_back(metric_or_dash(r, "airtime_infra_s", 1));
        row.push_back(metric_or_dash(r, "airtime_vehicle_s", 1));
      }
      table.add_row(row);
    }
    table.print(std::cerr);
  }

  try {
    if (!json_path.empty()) {
      sink.write_json(json_path);
      std::cerr << "wrote " << json_path << "\n";
    } else {
      std::cout << sink.to_json();
    }
    if (!csv_path.empty()) {
      sink.write_csv(csv_path);
      std::cerr << "wrote " << csv_path << "\n";
    }
  } catch (const std::exception&) {
    std::cerr << "error: cannot write output file\n";
    return 1;
  }
  return sink.any_errors() ? 1 : 0;
}
