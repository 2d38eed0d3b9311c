// Fleet-scaling sweep: how the live ViFi stack behaves as the vehicle
// population grows from the paper's single instrumented vehicle to a whole
// fleet (VanLAN ran two vans; DieselNet is a bus system). For each fleet
// size the full deployment rides one trip per replicate — every vehicle
// with its own CBR probe stream on the shared medium — and we report the
// aggregate delivery rate and the per-vehicle goodput, i.e. how much of the
// channel each client keeps as contention grows.
//
// Runs on the parallel runtime's fleet axis, so the numbers are
// byte-reproducible for any thread count (VIFI_BENCH_SCALE multiplies
// replicates as usual).
//
// City-scale tiers (the large-fleet CI job):
//
//   --large   DieselNet-Ch1 with the spatially-culled medium at V=64
//             (two replicates) and V=256. The whole sweep runs on 8
//             worker threads and again on 1, and the two outputs must be
//             byte-identical — the culled medium preserves RNG draw
//             order, so determinism survives the optimisation. With
//             --json the delivery/fairness curve plus the measured
//             per-transmit culling speedup at V=256 are written as value
//             entries for the bench_compare gate (baseline_large.json).
//
//   --v1024   The completion check (large-fleet CI job): one culled
//             V=1024 trip. Completing on a stock CI runner is the bar;
//             nothing is gated, so the number can keep growing without
//             baseline churn.

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mac/medium.h"
#include "net/packet.h"
#include "runtime/runner.h"
#include "sim/simulator.h"
#include "util/rng.h"

using namespace vifi;
using namespace vifi::bench;
using sim::NodeId;

namespace {

constexpr const char* kLargeTestbed = "DieselNet-Ch1";

/// Per-transmit culling win at V=256, measured as the decode-attempt ratio
/// between the unculled and the culled medium over one broadcast per node
/// on the real DieselNet geometry. Decode attempts are what a transmit
/// pays for (one LossModel sample each), and the ratio is a deterministic
/// function of geometry + cull parameters, so it gates cleanly across
/// machines — unlike wall time.
double cull_speedup_v256() {
  const scenario::Testbed bed = runtime::make_testbed(kLargeTestbed, 256);
  class NullSink final : public mac::FrameSink {
   public:
    void on_frame(const mac::Frame&) override {}
  };
  std::uint64_t attempts[2] = {0, 0};
  for (const int culled : {0, 1}) {
    sim::Simulator sim;
    const auto loss = bed.make_channel(Rng(9));
    mac::MediumParams params;
    if (culled != 0)
      params.culling = bed.make_culling(params.audibility_threshold);
    mac::Medium medium(sim, *loss, params);
    std::vector<NodeId> nodes = bed.bs_ids();
    nodes.insert(nodes.end(), bed.vehicle_ids().begin(),
                 bed.vehicle_ids().end());
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (const NodeId n : nodes) {
      sinks.push_back(std::make_unique<NullSink>());
      medium.attach(n, sinks.back().get());
    }
    net::PacketFactory factory;
    for (const NodeId n : nodes) {
      mac::Frame f;
      f.type = mac::FrameType::Data;
      f.tx = n;
      f.packet = factory.make(net::Direction::Upstream, n, nodes.front(),
                              500, sim.now());
      f.data.packet_id = f.packet->id;
      f.data.origin = n;
      f.data.hop_dst = nodes.front();
      medium.transmit(std::move(f));
      sim.run();
    }
    attempts[culled] = medium.decode_attempts();
  }
  return static_cast<double>(attempts[0]) / static_cast<double>(attempts[1]);
}

int run_classic() {
  runtime::ExperimentSpec spec;
  spec.name = "fleet_scale";
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

  TextTable table("Fleet scaling — live ViFi, 60 s trips");
  table.set_header({"testbed", "vehicles", "delivery rate",
                    "median session (s)", "pkts/day (all)",
                    "pkts/day per vehicle"});
  for (const auto& r : sink.ordered()) {
    if (!r.error.empty()) {
      table.add_row({r.testbed, std::to_string(r.fleet),
                     "error: " + r.error, "", "", ""});
      continue;
    }
    const double per_day = r.metrics.at("packets_per_day");
    table.add_row({r.testbed, std::to_string(r.fleet),
                   TextTable::pct(r.metrics.at("delivery_rate"), 1),
                   TextTable::num(r.metrics.at("median_session_s"), 1),
                   TextTable::num(per_day, 0),
                   TextTable::num(per_day / r.fleet, 0)});
  }
  table.print(std::cout);

  std::cout << "\nShape check: aggregate packets/day grows with the fleet "
               "while per-vehicle delivery degrades gracefully — BSes "
               "anchor clients independently, so added vehicles cost "
               "contention, not protocol collapse.\n";
  return sink.any_errors() ? 1 : 0;
}

std::vector<runtime::ExperimentPoint> large_points() {
  // V=64 twice (replicate seeds), V=256 once — the PR-gate budget. All
  // points ride the culled medium; 30 s trips keep a stock runner happy.
  std::vector<runtime::ExperimentPoint> points;
  for (const auto& [fleet, seeds] :
       std::vector<std::pair<int, std::vector<std::uint64_t>>>{
           {64, {1, 2}}, {256, {1}}}) {
    runtime::ExperimentSpec spec;
    spec.name = "fleet_scale_large";
    spec.grid.testbeds = {kLargeTestbed};
    spec.grid.fleet_sizes = {fleet};
    spec.grid.policies = {"ViFi"};
    spec.grid.seeds = seeds;
    spec.days = 1;
    spec.trips_per_day = 1;
    spec.trip_duration = Time::seconds(30.0);
    spec.workload = "cbr";
    spec.cull_medium = true;
    for (runtime::ExperimentPoint p : spec.enumerate()) {
      p.index = points.size();
      points.push_back(std::move(p));
    }
  }
  return points;
}

int run_large(const std::string& json_path) {
  const std::vector<runtime::ExperimentPoint> points = large_points();
  const auto t0 = std::chrono::steady_clock::now();
  const runtime::ResultSink wide =
      runtime::Runner({.threads = 8}).run(points, runtime::run_point);
  const auto t1 = std::chrono::steady_clock::now();
  if (wide.any_errors()) {
    for (const auto& r : wide.ordered())
      if (!r.error.empty())
        std::cerr << r.testbed << " V=" << r.fleet << ": " << r.error << "\n";
    return 1;
  }
  // The tentpole property: the culled medium only *skips* provably
  // sub-audibility receivers, so surviving receivers keep their RNG draw
  // order and the sweep stays byte-identical for any worker count.
  const runtime::ResultSink solo =
      runtime::Runner({.threads = 1}).run(points, runtime::run_point);
  const bool deterministic = wide.to_json() == solo.to_json() &&
                             wide.to_csv() == solo.to_csv();

  struct Cell {
    double delivery = 0.0, jain = 0.0;
    int n = 0;
  };
  std::map<int, Cell> cells;
  TextTable table("City-scale fleets — " + std::string(kLargeTestbed) +
                  ", culled medium, 30 s trips");
  table.set_header({"vehicles", "seed", "delivery rate", "jain(delivery)",
                    "pkts/day per vehicle"});
  for (const auto& r : wide.ordered()) {
    Cell& c = cells[r.fleet];
    ++c.n;
    c.delivery += (r.metrics.at("delivery_rate") - c.delivery) / c.n;
    c.jain += (r.metrics.at("fairness_jain_delivery") - c.jain) / c.n;
    table.add_row({std::to_string(r.fleet), std::to_string(r.seed),
                   TextTable::pct(r.metrics.at("delivery_rate"), 1),
                   TextTable::num(r.metrics.at("fairness_jain_delivery"), 3),
                   TextTable::num(r.metrics.at("packets_per_day") / r.fleet,
                                  0)});
  }
  table.print(std::cout);

  const double speedup = cull_speedup_v256();
  const double sweep_s =
      std::chrono::duration<double>(t1 - t0).count();
  std::cout << "\nsweep wall time (8 threads): " << TextTable::num(sweep_s, 1)
            << " s\n"
            << "per-transmit culling speedup at V=256 (decode-attempt "
               "ratio, unculled/culled): "
            << TextTable::num(speedup, 2) << "x\n"
            << "thread-count determinism (8 vs 1): "
            << (deterministic ? "OK — byte-identical output"
                              : "FAILED — outputs differ")
            << "\n";

  if (!json_path.empty()) {
    std::vector<ValueEntry> entries;
    for (const auto& [fleet, c] : cells) {
      const std::string prefix = "FleetScale/" + std::string(kLargeTestbed) +
                                 "/V" + std::to_string(fleet) + "/";
      entries.push_back({prefix + "delivery_rate", c.delivery, true});
      entries.push_back({prefix + "jain_delivery", c.jain, true});
    }
    entries.push_back({"FleetScale/cull_speedup_v256", speedup, true});
    if (write_value_entries(json_path, "fleet_scale", entries,
                            "large-fleet curve") != 0)
      return 1;
  }
  return deterministic ? 0 : 1;
}

int run_v1024() {
  runtime::ExperimentSpec spec;
  spec.name = "fleet_scale_v1024";
  spec.grid.testbeds = {kLargeTestbed};
  spec.grid.fleet_sizes = {1024};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(15.0);
  spec.workload = "cbr";
  spec.cull_medium = true;

  const auto t0 = std::chrono::steady_clock::now();
  const runtime::ResultSink sink =
      runtime::Runner({.threads = 0}).run(spec);
  const auto t1 = std::chrono::steady_clock::now();
  for (const auto& r : sink.ordered()) {
    if (!r.error.empty()) {
      std::cerr << "V=1024: " << r.error << "\n";
      return 1;
    }
    std::cout << "V=1024 culled trip (15 s sim): delivery "
              << TextTable::pct(r.metrics.at("delivery_rate"), 1)
              << ", jain(delivery) "
              << TextTable::num(r.metrics.at("fairness_jain_delivery"), 3)
              << ", wall "
              << TextTable::num(
                     std::chrono::duration<double>(t1 - t0).count(), 1)
              << " s\n";
  }
  std::cout << "V=1024 completion check: OK\n";
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
      std::cerr << "Usage: " << argv[0] << " [--large [--json PATH]] "
                << "[--v1024]\n";
      return 2;
    }
  }
  if (!json_path.empty() && !large) {
    std::cerr << "error: --json is a --large tier flag\n";
    return 2;
  }
  if (v1024) return run_v1024();
  if (large) return run_large(json_path);
  return run_classic();
}
