// TraceForge CLI: the record / fit / synthesize pipeline over
// manifest-backed TraceCatalogs, as separate composable steps.
//
//   traceforge record --testbed DieselNet-Ch1 --vehicles 8 --trips 2
//       --seed 7 --out catalog_src
//   traceforge fit catalog_src --out model.vifimodel
//   traceforge synth --model model.vifimodel --vehicles 16 --trips 2
//       --seed 9 --out catalog_16
//
// `record` logs a real campaign (beacons only, the DieselNet methodology)
// as a catalog; `fit` distils a catalog into a `vifi-tracemodel v1`;
// `synth` manufactures a statistically-matched fleet catalog from a model
// (deterministic per --seed). A catalog replays through the live stack as
// a sweep point:
//
//   sweep --workload cbr --trace-sets catalog_16 --testbeds DieselNet-Ch1
//       --fleets 16 --policies ViFi --threads 0 --json replay.json

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cli_args.h"
#include "runtime/experiment.h"
#include "scenario/campaign.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/model_io.h"
#include "tracegen/synth.h"

using namespace vifi;

namespace {

int usage() {
  std::cerr
      << "Usage: traceforge COMMAND [options]\n"
      << "  record --testbed NAME --out DIR [--vehicles V] [--days D]\n"
      << "         [--trips T] [--trip-seconds S] [--seed N] [--name NAME]\n"
      << "      log a real fleet campaign as a TraceCatalog\n"
      << "  fit CATALOG_DIR --out MODEL [--gap-seconds G]\n"
      << "      fit a generative model from a catalog's traces\n"
      << "  synth --model MODEL --out DIR [--vehicles V] [--days D]\n"
      << "        [--trips T] [--trip-seconds S] [--seed N] [--name NAME]\n"
      << "      synthesize a statistically-matched fleet catalog\n";
  return 2;
}

/// Minimal flag map over a subcommand's \p known flags: every option
/// takes one value, and a flag the subcommand does not know is a usage
/// error, so a misspelt one never silently takes its default.
std::map<std::string, std::string> parse_flags(
    int argc, char** argv, std::initializer_list<std::string_view> known,
    std::string* positional) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (std::find(known.begin(), known.end(), arg) == known.end()) {
        std::cerr << "unknown option " << arg << "\n";
        std::exit(usage());
      }
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(usage());
      }
      flags[arg] = argv[++i];
    } else if (positional != nullptr && positional->empty()) {
      *positional = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      std::exit(usage());
    }
  }
  return flags;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    std::cerr << "missing required option " << key << "\n";
    std::exit(usage());
  }
  return it->second;
}

/// A numeric flag, strictly parsed (cli::parse_number) into [lo, hi].
template <class T>
T number(const std::map<std::string, std::string>& flags,
         const std::string& key, const std::string& fallback, T lo,
         T hi = std::numeric_limits<T>::max()) {
  return cli::parse_number(key, get(flags, key, fallback), lo, hi);
}

int cmd_record(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv,
                                 {"--testbed", "--out", "--vehicles", "--days",
                                  "--trips", "--trip-seconds", "--seed",
                                  "--name"},
                                 nullptr);
  const std::string testbed = require(flags, "--testbed");
  if (!runtime::known_testbed(testbed)) {
    std::cerr << "unknown testbed: " << testbed << "\n";
    return 2;
  }
  const std::string out = require(flags, "--out");
  const int vehicles = number(flags, "--vehicles", "1", 1);
  scenario::CampaignConfig cfg;
  cfg.days = number(flags, "--days", "1", 0);
  cfg.trips_per_day = number(flags, "--trips", "1", 0);
  cfg.trip_duration =
      Time::seconds(number(flags, "--trip-seconds", "0", 0.0, 1e7));
  cfg.seed = number<std::uint64_t>(flags, "--seed", "1", 0);
  cfg.log_probes = false;  // beacon-only: what replay schedules consume
  const scenario::Testbed bed = runtime::make_testbed(testbed, vehicles);
  const trace::Campaign campaign = scenario::generate_campaign(bed, cfg);
  tracegen::write_catalog(out, get(flags, "--name", "recorded"), campaign);
  std::cout << "recorded " << campaign.trips.size() << " traces ("
            << vehicles << " vehicles x " << cfg.days * cfg.trips_per_day
            << " trips) into " << out << "\n";
  return 0;
}

int cmd_fit(int argc, char** argv) {
  std::string catalog_dir;
  const auto flags =
      parse_flags(argc, argv, {"--out", "--gap-seconds"}, &catalog_dir);
  if (catalog_dir.empty()) {
    std::cerr << "fit needs a CATALOG_DIR\n";
    return usage();
  }
  const std::string out = require(flags, "--out");
  tracegen::FitOptions opts;
  opts.gap_tolerance_s = number(flags, "--gap-seconds", "2", 0);
  const auto catalog = tracegen::load_catalog_shared(catalog_dir);
  std::vector<const trace::MeasurementTrace*> trips;
  for (const auto& t : catalog->traces()) trips.push_back(&t);
  const tracegen::TraceModel model = tracegen::fit_model(trips, opts);
  tracegen::save_model_file(model, out);
  std::cout << "fitted " << model.links.size() << " BS links from "
            << model.source_trips << " traces (" << catalog->testbed()
            << ") into " << out << "\n";
  return 0;
}

int cmd_synth(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv,
                                 {"--model", "--out", "--vehicles", "--days",
                                  "--trips", "--trip-seconds", "--seed",
                                  "--name"},
                                 nullptr);
  const tracegen::TraceModel model =
      tracegen::load_model_file(require(flags, "--model"));
  const std::string out = require(flags, "--out");
  tracegen::SynthesisSpec spec;
  spec.vehicles = number(flags, "--vehicles", "1", 1);
  spec.days = number(flags, "--days", "1", 0);
  spec.trips_per_day = number(flags, "--trips", "1", 0);
  spec.trip_duration =
      Time::seconds(number(flags, "--trip-seconds", "0", 0.0, 1e7));
  spec.seed = number<std::uint64_t>(flags, "--seed", "1", 0);
  const trace::Campaign campaign = tracegen::synthesize_fleet(model, spec);
  tracegen::write_catalog(out, get(flags, "--name", "synthetic"), campaign);
  std::cout << "synthesized " << campaign.trips.size() << " traces ("
            << spec.vehicles << " vehicles, seed " << spec.seed << ") into "
            << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc, argv);
    if (cmd == "fit") return cmd_fit(argc, argv);
    if (cmd == "synth") return cmd_synth(argc, argv);
  } catch (const cli::BadNumber& e) {
    std::cerr << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "traceforge " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n";
  return usage();
}
