#pragma once

/// \file figures.h
/// The `paper` driver's runs: one per figure, table, ablation and
/// validation, each defined in NAME.cc, and the fleet studies, defined in
/// fleet.cc. A run prints to stdout; the runs CI gates also return the
/// value entries `paper NAME --json PATH` writes. A run whose own check
/// fails (a failed sweep point, a byte-compare mismatch) throws.

#include <vector>

#include "bench_util.h"

namespace vifi::bench {

void fig02_aggregate();
void fig03_sessions();
void fig04_definitions();
void fig05_diversity();
void fig06_burstiness();
std::vector<ValueEntry> fig07_vifi_link();
void fig08_path();
void fig09_tcp_vanlan();
void fig10_tcp_dieselnet();
void fig11_voip();
void fig12_efficiency();
void table1_coordination();
void table2_formulations();
void ablation_channelplan();
void ablation_limits();
void ablation_variants();
std::vector<ValueEntry> validation_synth();
void validation_tracesim();
std::vector<ValueEntry> fleet_contention();
std::vector<ValueEntry> fleet_replay();
std::vector<ValueEntry> fleet_large();
void fleet_v1024();

}  // namespace vifi::bench
