// The paper driver: every figure, table, ablation, validation and fleet
// run of the reproduction, registered by name in one binary (see usage
// below). VIFI_BENCH_SCALE=N multiplies every run's trip counts
// (bench_util.h). A run whose own check fails exits 1 with the reason.

#include <algorithm>
#include <exception>
#include <iostream>
#include <iterator>
#include <string_view>
#include <vector>

#include "figures.h"

using namespace vifi::bench;

namespace {

/// One registered run: `print` renders it, or, for a run CI gates,
/// `gated` renders it and returns the value entries --json writes
/// (`what` names them in the confirmation line).
struct Run {
  const char* name;
  void (*print)() = nullptr;
  std::vector<ValueEntry> (*gated)() = nullptr;
  const char* what = nullptr;
};

constexpr Run kRuns[] = {
    {"fig02_aggregate", fig02_aggregate},
    {"fig03_sessions", fig03_sessions},
    {"fig04_definitions", fig04_definitions},
    {"fig05_diversity", fig05_diversity},
    {"fig06_burstiness", fig06_burstiness},
    {"fig07_vifi_link", nullptr, fig07_vifi_link, "aggregate-loss entries"},
    {"fig08_path", fig08_path},
    {"fig09_tcp_vanlan", fig09_tcp_vanlan},
    {"fig10_tcp_dieselnet", fig10_tcp_dieselnet},
    {"fig11_voip", fig11_voip},
    {"fig12_efficiency", fig12_efficiency},
    {"table1_coordination", table1_coordination},
    {"table2_formulations", table2_formulations},
    {"ablation_channelplan", ablation_channelplan},
    {"ablation_limits", ablation_limits},
    {"ablation_variants", ablation_variants},
    {"validation_synth", nullptr, validation_synth, "fidelity metrics"},
    {"validation_tracesim", validation_tracesim},
    {"fleet_contention", nullptr, fleet_contention, "fairness curve"},
    {"fleet_replay", nullptr, fleet_replay, "replay curve"},
    {"fleet_large", nullptr, fleet_large, "large-fleet curves"},
    {"fleet_v1024", fleet_v1024},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  if (argc == 2 && name == "--list") {
    for (const Run& run : kRuns) std::cout << run.name << "\n";
    return 0;
  }
  const Run* run = std::ranges::find(kRuns, name, &Run::name);
  const bool json = argc == 4 && std::string_view(argv[2]) == "--json";
  if (run == std::end(kRuns) || (argc != 2 && !(json && run->gated))) {
    std::cerr << "Usage: " << argv[0] << " --list | NAME [--json PATH]\n"
              << "  (--json only for:";
    for (const Run& gated : kRuns)
      if (gated.gated != nullptr) std::cerr << " " << gated.name;
    std::cerr << ")\n";
    return 2;
  }
  try {
    if (run->gated == nullptr) {
      run->print();
      return 0;
    }
    const std::vector<ValueEntry> entries = run->gated();
    return json ? write_value_entries(argv[3], run->name, entries, run->what)
                : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << run->name << ": " << e.what() << "\n";
    return 1;
  }
}
