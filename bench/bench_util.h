#pragma once

/// \file bench_util.h
/// Shared plumbing for the `paper` runs: the scale knob, the one
/// trip-parallel loop (map_trips), standard campaign and live-trip
/// recipes, and session sweeps used by several figures. The
/// protocols a bench compares come by name from the runtime, like a sweep
/// point's: runtime::replay_trip for the §3.1 policies,
/// runtime::live_policy_config for the §5 ViFi, BRR and Diversity stacks.

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/sessions.h"
#include "apps/cbr.h"
#include "apps/transfer_driver.h"
#include "apps/voip.h"
#include "handoff/replay.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
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

/// Writes value entries to \p path in the google-benchmark JSON shape
/// bench_compare understands (`--merge`s into BENCH.json next to the perf
/// suite), doubles shortest-round-trip like runtime::ResultSink. Prints
/// "wrote <what> to <path>" and returns 0, or 1 if \p path cannot be opened.
inline int write_value_entries(const std::string& path,
                               const std::string& executable,
                               const std::vector<ValueEntry>& entries,
                               const std::string& what) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "error: cannot write " << path << "\n";
    return 1;
  }
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
  std::cout << "wrote " << what << " to " << path << "\n";
  return 0;
}

/// VIFI_BENCH_SCALE multiplies trip counts; 1 (also when unset) is the
/// quick default. Anything but a whole integer >= 1 ends the bench with
/// exit code 2.
inline int scale() {
  // Read on the main thread before any worker starts (never inside a
  // map_trips body); benches take their scale knob from the launcher.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* s = std::getenv("VIFI_BENCH_SCALE");
  if (s == nullptr) return 1;
  const std::string_view text(s);
  int v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < 1) {
    std::cerr << "error: VIFI_BENCH_SCALE must be an integer >= 1, got '"
              << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// Runs fn(trip) for every trip in [0, n) on all cores and returns the
/// results in trip order. Each trip depends only on its own seed and the
/// caller folds the results sequentially, so the bench prints the same
/// bytes as a sequential loop. A failing trip throws "index I: <error>",
/// which ends the run: the paper driver prints it and exits 1.
template <class Fn>
auto map_trips(std::size_t n, Fn&& fn) {
  return runtime::Runner({.threads = 0}).map(n, std::forward<Fn>(fn));
}

/// map_trips over a rows x trips grid, e.g. one row per protocol
/// configuration: returns out[row][trip] = fn(row, trip).
template <class Fn>
auto map_grid(std::size_t rows, std::size_t trips, Fn&& fn) {
  auto flat = map_trips(rows * trips, [&](std::size_t i) {
    return fn(i / trips, i % trips);
  });
  std::vector<decltype(flat)> out(rows);
  for (std::size_t i = 0; i < flat.size(); ++i)
    out[i / trips].push_back(std::move(flat[i]));
  return out;
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

// Live-trip recipes. Each warms \p live up, attaches its workload for
// \p duration from the end of the warm-up and runs a short tail so late
// packets land.

/// A CBR stream (one packet per direction per slot); 1 s tail.
inline analysis::SlotStream cbr_trip(scenario::LiveTrip& live, Time duration) {
  live.run_until(scenario::LiveTrip::warmup());
  apps::CbrWorkload cbr(live.simulator(), live.transport());
  const Time end = live.simulator().now() + duration;
  cbr.start(end);
  live.run_until(end + Time::seconds(1.0));
  return cbr.slot_stream();
}

/// The §5.2 link workload (Figs. 7/8): one stochastic trip of \p bed with
/// link-layer retransmissions disabled, CBR for the whole lap.
inline analysis::SlotStream cbr_link_trip(const scenario::Testbed& bed,
                                          core::SystemConfig config,
                                          std::uint64_t seed) {
  config.vifi.max_retx = 0;
  scenario::LiveTrip live(bed, config, seed);
  return cbr_trip(live, bed.trip_duration());
}

/// Both directions of the §5.3.1 transfer workload at once.
struct TcpPair {
  apps::TransferDriverResult down;
  apps::TransferDriverResult up;

  /// Pools both directions into \p total, down before up.
  void pool_into(apps::TransferDriverResult& total) const {
    for (const auto* r : {&down, &up}) {
      total.transfer_times_s.insert(total.transfer_times_s.end(),
                                    r->transfer_times_s.begin(),
                                    r->transfer_times_s.end());
      total.transfers_per_session.insert(total.transfers_per_session.end(),
                                         r->transfers_per_session.begin(),
                                         r->transfers_per_session.end());
      total.completed += r->completed;
      total.aborted += r->aborted;
    }
    total.duration_s += down.duration_s + up.duration_s;
  }
};

/// Back-to-back 10 KB transfers downstream (flows from 1000) and upstream
/// (flows from 20000); 2 s tail.
inline TcpPair tcp_pair_trip(scenario::LiveTrip& live, Time duration) {
  live.run_until(scenario::LiveTrip::warmup());
  apps::TransferDriverParams down_params;
  down_params.first_flow = 1000;
  apps::TransferDriver down(live.simulator(), live.transport(),
                            net::Direction::Downstream, down_params);
  apps::TransferDriverParams up_params;
  up_params.first_flow = 20000;
  apps::TransferDriver up(live.simulator(), live.transport(),
                          net::Direction::Upstream, up_params);
  const Time end = live.simulator().now() + duration;
  down.start(end);
  up.start(end);
  live.run_until(end + Time::seconds(2.0));
  return {down.result(), up.result()};
}

/// One bidirectional VoIP call (§5.3.2); 1 s tail.
inline apps::VoipResult voip_trip(scenario::LiveTrip& live, Time duration) {
  live.run_until(scenario::LiveTrip::warmup());
  apps::VoipCall call(live.simulator(), live.transport());
  const Time end = live.simulator().now() + duration;
  call.start(end);
  live.run_until(end + Time::seconds(1.0));
  return call.result();
}

/// VoIP calls folded in trip order: pooled sessions, 3 s window MoS, and
/// interruptions (windows with MoS < 2).
struct VoipTally {
  std::vector<double> sessions_s;
  double mos_sum = 0.0;
  int mos_n = 0;
  int interruptions = 0;
  std::int64_t packets_sent = 0;
  std::int64_t packets_on_time = 0;

  void add(const apps::VoipResult& r) {
    sessions_s.insert(sessions_s.end(), r.session_lengths_s.begin(),
                      r.session_lengths_s.end());
    for (const double m : r.window_mos) {
      mos_sum += m;
      ++mos_n;
      if (m < 2.0) ++interruptions;
    }
    packets_sent += r.packets_sent;
    packets_on_time += r.packets_on_time;
  }
  double median_session() const {
    return analysis::median_session_length(sessions_s);
  }
  double mean_mos() const { return mos_n ? mos_sum / mos_n : 0.0; }
  /// Per hour of call time (3 s per window).
  double interruptions_per_hour() const {
    return mos_n > 0 ? interruptions * 3600.0 / (3.0 * mos_n) : 0.0;
  }
  double effective_loss() const {
    return packets_sent > 0 ? 1.0 - static_cast<double>(packets_on_time) /
                                        static_cast<double>(packets_sent)
                            : 0.0;
  }
};

}  // namespace vifi::bench
