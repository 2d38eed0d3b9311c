#pragma once

/// \file bench_util.h
/// Shared plumbing for the per-figure bench binaries: scale knobs, standard
/// campaign/live-run recipes, and session sweeps used by several figures.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sessions.h"
#include "apps/cbr.h"
#include "handoff/policies.h"
#include "handoff/replay.h"
#include "runtime/executor.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "util/stats.h"
#include "util/table.h"

namespace vifi::bench {

/// A unitless quality metric for the bench_compare.py gate: emitted as a
/// google-benchmark "value entry" (value + explicit good direction)
/// rather than a cpu_time.
struct ValueEntry {
  std::string name;
  double value = 0.0;
  bool bigger_is_better = true;
};

/// Writes value entries in the google-benchmark JSON shape bench_compare
/// understands (`--merge`s into BENCH.json next to the perf suite).
/// Doubles are rendered shortest-round-trip, matching runtime::ResultSink.
inline void write_value_entries(std::ostream& out,
                                const std::string& executable,
                                const std::vector<ValueEntry>& entries) {
  auto fmt = [](double v) {
    char buf[40];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc{} ? std::string(buf, end) : std::string("0");
  };
  out << "{\n  \"context\": {\n    \"executable\": \"" << executable
      << "\"\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << (i == 0 ? "" : ",\n") << "    {\"name\": \"" << entries[i].name
        << "\", \"run_type\": \"iteration\", \"value\": "
        << fmt(entries[i].value) << ", \"bigger_is_better\": "
        << (entries[i].bigger_is_better ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";
}

/// VIFI_BENCH_SCALE multiplies trip counts; 1 is the quick default.
inline int scale() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once from main() before any
  // worker thread starts; benches take their scale knob from the launcher.
  if (const char* s = std::getenv("VIFI_BENCH_SCALE")) {
    const int v = std::atoi(s);
    if (v >= 1) return v;
  }
  return 1;
}

/// Standard VanLAN measurement campaign (§3.1 methodology).
inline trace::Campaign vanlan_campaign(const scenario::Testbed& bed,
                                       int days = 3, int trips_per_day = 4,
                                       std::uint64_t seed = 20080817) {
  scenario::CampaignConfig cfg;
  cfg.days = days;
  cfg.trips_per_day = trips_per_day * scale();
  cfg.seed = seed;
  cfg.log_probes = true;
  cfg.log_bs_beacons = false;
  return scenario::generate_campaign(bed, cfg);
}

/// Beacon-only campaign (DieselNet §2.2: the vehicle can only log beacons).
inline trace::Campaign beacon_campaign(const scenario::Testbed& bed,
                                       int days = 3, int trips_per_day = 2,
                                       std::uint64_t seed = 20071201) {
  scenario::CampaignConfig cfg;
  cfg.days = days;
  cfg.trips_per_day = trips_per_day * scale();
  cfg.seed = seed;
  cfg.log_probes = false;
  cfg.log_bs_beacons = false;
  return scenario::generate_campaign(bed, cfg);
}

/// Session lengths under a named policy across a whole campaign.
inline std::vector<double> policy_session_lengths(
    const trace::Campaign& campaign, const std::string& name,
    const analysis::SessionDef& def) {
  std::vector<double> lengths;
  for (const auto& trip : campaign.trips) {
    const auto stream = runtime::outcomes_to_stream(
        runtime::replay_trip(trip, name, campaign));
    const auto trip_lengths = analysis::session_lengths_s(stream, def);
    lengths.insert(lengths.end(), trip_lengths.begin(), trip_lengths.end());
  }
  return lengths;
}

/// Live-run recipe: ViFi/BRR CBR link workload sessions over several trips
/// (used by Figs. 7/8).
inline std::vector<double> live_link_session_lengths(
    const scenario::Testbed& bed, const core::SystemConfig& config,
    const analysis::SessionDef& def, int trips, std::uint64_t seed_base,
    std::vector<analysis::SlotStream>* streams_out = nullptr) {
  std::vector<double> lengths;
  for (int trip = 0; trip < trips; ++trip) {
    core::SystemConfig cfg = config;
    cfg.vifi.max_retx = 0;  // §5.2: link-layer retransmissions disabled
    scenario::LiveTrip live(bed, cfg, seed_base + static_cast<std::uint64_t>(trip));
    live.run_until(scenario::LiveTrip::warmup());
    apps::CbrWorkload cbr(live.simulator(), live.transport());
    const Time end = live.simulator().now() + bed.trip_duration();
    cbr.start(end);
    live.run_until(end + Time::seconds(1.0));
    const auto stream = cbr.slot_stream();
    if (streams_out != nullptr) streams_out->push_back(stream);
    const auto trip_lengths = analysis::session_lengths_s(stream, def);
    lengths.insert(lengths.end(), trip_lengths.begin(), trip_lengths.end());
  }
  return lengths;
}

/// Standard protocol configurations (§5.1).
inline core::SystemConfig vifi_system() {
  core::SystemConfig cfg;
  return cfg;
}

inline core::SystemConfig brr_system() {
  core::SystemConfig cfg;
  cfg.vifi.diversity = false;
  cfg.vifi.salvage = false;
  return cfg;
}

inline core::SystemConfig diversity_only_system() {
  core::SystemConfig cfg;
  cfg.vifi.salvage = false;
  return cfg;
}

}  // namespace vifi::bench
