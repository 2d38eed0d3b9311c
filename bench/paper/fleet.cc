// The fleet studies: the live ViFi stack as the vehicle population grows
// from the paper's single instrumented vehicle to a whole fleet (VanLAN ran
// two vans; DieselNet is a bus system, §2.2). Every vehicle runs the §5.2
// CBR probe workload on the shared medium. Each run rides the parallel
// runtime and checks its own byte-determinism across worker counts; a
// failed point or a mismatch ends the run with an error (paper exits 1).
//
//   fleet_contention  Contention knee (Zheng et al.): V in {1, 2, 4, 8, 16}
//                     on VanLAN and DieselNet-Ch1, 60 s live trips. The
//                     medium's airtime ledger yields Jain's fairness index
//                     over the fleet and the infrastructure/client
//                     occupancy split; the knee is the first V where mean
//                     per-vehicle delivery falls below 90% of the solo
//                     value while aggregate goodput still grows. Plus a
//                     coord-vs-PAB twin at VanLAN V=4.
//   fleet_replay      The §5.x DieselNet benches, fleet-scale: V in
//                     {1, 2, 4, 8, 16} buses over TraceCatalogs of both
//                     kinds TraceForge produces (a recorded V-bus campaign,
//                     and V-bus traces synthesized from a model fitted on
//                     the recorded 16-bus campaign), re-run single-threaded
//                     to prove byte-identity. Plus a coord-vs-PAB twin on
//                     the recorded V=4 catalog.
//   fleet_large       City-scale tiers: culled live DieselNet-Ch1 sweeps at
//                     V=64 (two replicates) and V=256 on 8 workers and on 1,
//                     with the per-transmit culling speedup at V=256; then
//                     synthetic V in {64, 256} catalogs streamed through the
//                     sharded executor on 8 workers and through run_point.
//   fleet_v1024       Completion checks: one culled V=1024 live trip and
//                     one streamed 1024-bus catalog replay. Nothing gated.
//
// The three gated runs' value entries are deterministic functions of the
// committed seeds (VIFI_BENCH_SCALE multiplies replicate seeds where
// noted), so they transfer across machines; CI gates them against
// bench/baseline.json and bench/baseline_large.json. Wall times go to
// stderr, so stdout is a pure function of the code and the scale.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "figures.h"
#include "mac/medium.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/synth.h"
#include "util/rng.h"

using namespace vifi;
using namespace vifi::bench;

namespace {

constexpr const char* kDieselNet = "DieselNet-Ch1";
const std::vector<int> kFleets{1, 2, 4, 8, 16};

/// Seed 1, plus one replicate seed per extra unit of VIFI_BENCH_SCALE.
std::vector<std::uint64_t> replicate_seeds() {
  std::vector<std::uint64_t> seeds;
  for (int s = 1; s <= scale(); ++s)
    seeds.push_back(static_cast<std::uint64_t>(s));
  return seeds;
}

/// A ViFi CBR grid over \p testbeds x \p fleets x \p seeds: one stochastic
/// trip of \p trip_seconds per point, or, given a catalog (trip_seconds 0),
/// its trip groups up to the catalog's horizon.
runtime::ExperimentSpec fleet_spec(std::string name,
                                   std::vector<std::string> testbeds,
                                   std::vector<int> fleets,
                                   std::vector<std::uint64_t> seeds,
                                   double trip_seconds = 0.0) {
  runtime::ExperimentSpec spec;
  spec.name = std::move(name);
  spec.grid.testbeds = std::move(testbeds);
  spec.grid.fleet_sizes = std::move(fleets);
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = std::move(seeds);
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(trip_seconds);
  spec.workload = "cbr";
  return spec;
}

/// fleet_spec replaying the V-bus DieselNet-Ch1 catalog in \p dir.
runtime::ExperimentSpec replay_spec(std::string name, const std::string& dir,
                                    int vehicles,
                                    std::vector<std::uint64_t> seeds) {
  runtime::ExperimentSpec spec =
      fleet_spec(std::move(name), {kDieselNet}, {vehicles}, std::move(seeds));
  spec.grid.trace_sets = {dir};
  return spec;
}

/// Appends \p spec's points to \p points, numbering them on from its end,
/// so several mini-grids run as one sweep.
void append_points(std::vector<runtime::ExperimentPoint>& points,
                   const runtime::ExperimentSpec& spec) {
  for (runtime::ExperimentPoint p : spec.enumerate()) {
    p.index = points.size();
    points.push_back(std::move(p));
  }
}

/// Ends the run if any point of \p sink failed, each one on stderr.
void require_no_errors(const runtime::ResultSink& sink) {
  if (!sink.any_errors()) return;
  for (const auto& r : sink.ordered())
    if (!r.error.empty())
      std::cerr << r.testbed << " V=" << r.fleet
                << (r.trace_set.empty() ? "" : " " + r.trace_set)
                << (r.coordination.empty() ? "" : " (" + r.coordination + ")")
                << ": " << r.error << "\n";
  throw std::runtime_error("a sweep point failed");
}

/// The determinism property every fleet run checks: two executions of one
/// sweep serialise byte-identically.
bool same_bytes(const runtime::ResultSink& a, const runtime::ResultSink& b) {
  return a.to_json() == b.to_json() && a.to_csv() == b.to_csv();
}

/// Returns fn(), printing its wall time to stderr as "<what> wall time".
template <class Fn>
auto timed(const std::string& what, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = fn();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  std::cerr << what << " wall time: " << TextTable::num(wall.count(), 1)
            << " s\n";
  return result;
}

/// Means over replicate seeds of one (testbed or catalog, fleet) cell.
/// Fleet-1 points carry no fairness metrics (their output is pinned
/// byte-identical to the pre-fairness sweeps); one vehicle is perfectly
/// fair by definition.
struct FleetCell {
  double aggregate_per_day = 0.0;
  double delivery_rate = 0.0;
  double jain_delivery = 1.0;
  double jain_airtime = 1.0;
  double min_vehicle_rate = 0.0;
  double infra_airtime_s = 0.0;
  double vehicle_airtime_s = 0.0;
  int replicates = 0;

  void add(const runtime::PointResult& r) {
    const int n = ++replicates;
    auto fold = [n](double& mean, double x) { mean += (x - mean) / n; };
    fold(aggregate_per_day, r.metrics.at("packets_per_day"));
    fold(delivery_rate, r.metrics.at("delivery_rate"));
    if (r.fleet > 1) {
      fold(jain_delivery, r.metrics.at("fairness_jain_delivery"));
      fold(jain_airtime, r.metrics.at("fairness_jain_airtime"));
      fold(min_vehicle_rate, r.metrics.at("per_vehicle_delivery_min"));
      fold(infra_airtime_s, r.metrics.at("airtime_infra_s"));
      fold(vehicle_airtime_s, r.metrics.at("airtime_vehicle_s"));
    } else {
      fold(jain_delivery, 1.0);
      fold(jain_airtime, 1.0);
      fold(min_vehicle_rate, r.metrics.at("delivery_rate"));
    }
  }
  double per_vehicle_per_day(int fleet) const {
    return aggregate_per_day / fleet;
  }
};

/// Coord-vs-PAB twin: \p spec's points once per coordination tier over
/// the same trips, so the only delta is the BS-side ConnectivityManager.
/// Means over replicate seeds.
struct CoordTwin {
  double pab_delivery = 0.0, coord_delivery = 0.0;
  double pab_jain = 1.0, coord_jain = 1.0;

  double delivery_ratio() const {
    return pab_delivery > 0.0 ? coord_delivery / pab_delivery : 1.0;
  }
};

CoordTwin run_coord_twin(runtime::ExperimentSpec spec,
                         const runtime::Runner& runner) {
  spec.grid.coordinations = {"pab", "coord"};
  const runtime::ResultSink sink = runner.run(spec);
  require_no_errors(sink);
  CoordTwin twin;
  int pab_n = 0, coord_n = 0;
  for (const auto& r : sink.ordered()) {
    const bool coord = r.coordination == "coord";
    const int n = coord ? ++coord_n : ++pab_n;
    double& delivery = coord ? twin.coord_delivery : twin.pab_delivery;
    double& jain = coord ? twin.coord_jain : twin.pab_jain;
    delivery += (r.metrics.at("delivery_rate") - delivery) / n;
    jain += (r.metrics.at("fairness_jain_delivery") - jain) / n;
  }
  return twin;
}

/// A directory of one run's own under temp_directory_path(), named by pid
/// and a counter so concurrent runs never share one, and removed with
/// everything in it however the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem) {
    static std::atomic<int> counter{0};
    const std::filesystem::path tmp = std::filesystem::temp_directory_path();
    do {
      path_ = tmp / (stem + "_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
    } while (!std::filesystem::create_directory(path_));
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// One DieselNet-Ch1 trip of a V-bus fleet, beacon-logged (§2.2).
trace::Campaign record_fleet(int vehicles) {
  const scenario::Testbed bed = runtime::make_testbed(kDieselNet, vehicles);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(60.0);
  cfg.seed = 20080605;
  cfg.log_probes = false;  // DieselNet vehicles log beacons only (§2.2)
  return scenario::generate_campaign(bed, cfg);
}

/// The trace model every synthetic catalog draws from: fitted on the
/// recorded 16-bus campaign.
tracegen::TraceModel fleet_model() {
  return tracegen::fit_model(record_fleet(16));
}

/// Writes a V-bus catalog synthesized from \p model into \p dir's
/// "synth_vV" and returns that directory.
std::string write_synth_catalog(const tracegen::TraceModel& model,
                                const ScratchDir& dir, int vehicles,
                                double trip_seconds) {
  tracegen::SynthesisSpec synth;
  synth.vehicles = vehicles;
  synth.trip_duration = Time::seconds(trip_seconds);
  synth.seed = 606;
  const std::string name = "synth_v" + std::to_string(vehicles);
  const std::string path = dir.sub(name);
  tracegen::write_catalog(path, name, tracegen::synthesize_fleet(model, synth));
  return path;
}

/// Per-transmit culling win at V=256, measured as the decode-attempt ratio
/// between the unculled and the culled medium over one broadcast per node
/// on the real DieselNet geometry. Decode attempts are what a transmit
/// pays for (one LossModel sample each), and the ratio is a deterministic
/// function of geometry + cull parameters, so it gates cleanly across
/// machines — unlike wall time.
double cull_speedup_v256() {
  const scenario::Testbed bed = runtime::make_testbed(kDieselNet, 256);
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
    std::vector<sim::NodeId> nodes = bed.bs_ids();
    nodes.insert(nodes.end(), bed.vehicle_ids().begin(),
                 bed.vehicle_ids().end());
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (const sim::NodeId n : nodes) {
      sinks.push_back(std::make_unique<NullSink>());
      medium.attach(n, sinks.back().get());
    }
    net::PacketFactory factory;
    for (const sim::NodeId n : nodes) {
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

/// fleet_large's live half: V=64 twice (replicate seeds), V=256 once — the
/// budget of a CI job on a stock runner — on the culled medium, 30 s trips. The culled medium
/// only *skips* provably sub-audibility receivers, so surviving receivers
/// keep their RNG draw order and the sweep stays byte-identical for any
/// worker count.
std::vector<ValueEntry> live_large() {
  std::vector<runtime::ExperimentPoint> points;
  for (const auto& [fleet, seeds] :
       std::vector<std::pair<int, std::vector<std::uint64_t>>>{
           {64, {1, 2}}, {256, {1}}}) {
    runtime::ExperimentSpec spec =
        fleet_spec("fleet_scale_large", {kDieselNet}, {fleet}, seeds, 30.0);
    spec.cull_medium = true;
    append_points(points, spec);
  }
  const runtime::ResultSink wide = timed("sweep (8 threads)", [&] {
    return runtime::Runner({.threads = 8}).run(points, runtime::run_point);
  });
  require_no_errors(wide);
  const bool deterministic = same_bytes(
      wide, runtime::Runner({.threads = 1}).run(points, runtime::run_point));

  struct Cell {
    double delivery = 0.0, jain = 0.0;
    int n = 0;
  };
  std::map<int, Cell> cells;
  TextTable table("City-scale fleets — " + std::string(kDieselNet) +
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
  std::cout << "\nper-transmit culling speedup at V=256 (decode-attempt "
               "ratio, unculled/culled): "
            << TextTable::num(speedup, 2) << "x\n"
            << "thread-count determinism (8 vs 1): "
            << (deterministic ? "OK — byte-identical output"
                              : "FAILED — outputs differ")
            << "\n";
  if (!deterministic)
    throw std::runtime_error("live sweep: 8- and 1-thread outputs differ");

  std::vector<ValueEntry> entries;
  for (const auto& [fleet, c] : cells) {
    const std::string prefix = "FleetScale/" + std::string(kDieselNet) +
                               "/V" + std::to_string(fleet) + "/";
    entries.push_back({prefix + "delivery_rate", c.delivery, true});
    entries.push_back({prefix + "jain_delivery", c.jain, true});
  }
  entries.push_back({"FleetScale/cull_speedup_v256", speedup, true});
  return entries;
}

/// fleet_large's replay half: synthetic V in {64, 256} catalogs (20 s
/// trips) streamed through runtime::run_point_sharded, trip groups loaded
/// from disk one group per worker instead of the whole catalog sitting in
/// memory. Each point runs on 8 workers and again through run_point (the
/// same executor on one inline worker): trip sharding changes memory
/// behaviour, never results.
std::vector<ValueEntry> replay_large() {
  const ScratchDir dir("vifi_fleet_replay_large");
  const tracegen::TraceModel model = fleet_model();
  std::vector<runtime::ExperimentPoint> points;
  for (const int v : {64, 256})
    append_points(points, replay_spec("fleet_replay_large",
                                      write_synth_catalog(model, dir, v, 20.0),
                                      v, {1}));

  const runtime::Runner pool8({.threads = 8});
  runtime::ResultSink sharded8, sharded1;
  for (const auto& p : points) {
    sharded8.add(runtime::run_point_sharded(p, pool8));
    sharded1.add(runtime::run_point(p));
  }
  const bool thread_invariant = same_bytes(sharded8, sharded1);

  TextTable table("City-scale replay — " + std::string(kDieselNet) +
                  ", streamed synthetic catalogs, sharded trips");
  table.set_header({"V", "delivery", "jain(delivery)", "min veh delivery"});
  std::vector<ValueEntry> entries;
  for (const auto& r : sharded8.ordered()) {
    table.add_row({std::to_string(r.fleet),
                   TextTable::pct(r.metrics.at("delivery_rate"), 1),
                   TextTable::num(r.metrics.at("fairness_jain_delivery"), 3),
                   TextTable::pct(r.metrics.at("per_vehicle_delivery_min"),
                                  1)});
    const std::string prefix = "FleetReplayLarge/" + std::string(kDieselNet) +
                               "/V" + std::to_string(r.fleet) + "/";
    entries.push_back(
        {prefix + "delivery_rate", r.metrics.at("delivery_rate"), true});
    entries.push_back({prefix + "jain_delivery",
                       r.metrics.at("fairness_jain_delivery"), true});
  }
  table.print(std::cout);
  std::cout << "\nsharded thread-count determinism (8 vs 1): "
            << (thread_invariant ? "OK" : "FAILED") << "\n";
  if (!thread_invariant)
    throw std::runtime_error("sharded replay: 8 workers and run_point differ");
  return entries;
}

}  // namespace

std::vector<ValueEntry> vifi::bench::fleet_contention() {
  const runtime::Runner runner({.threads = 0});
  const runtime::ExperimentSpec spec =
      fleet_spec("fleet_contention", {"VanLAN", kDieselNet}, kFleets,
                 replicate_seeds(), 60.0);
  const runtime::ResultSink sink = runner.run(spec);
  require_no_errors(sink);

  std::map<std::pair<std::string, int>, FleetCell> cells;
  for (const auto& r : sink.ordered()) cells[{r.testbed, r.fleet}].add(r);

  TextTable table("Fleet contention — fairness knee, live ViFi, 60 s trips");
  table.set_header({"testbed", "V", "pkts/day (all)", "pkts/day per veh",
                    "delivery", "min veh delivery", "jain(delivery)",
                    "jain(airtime)", "infra/veh air (s)"});
  for (const auto& bed : spec.grid.testbeds) {
    for (const int v : kFleets) {
      const FleetCell& c = cells.at({bed, v});
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
    for (const int v : kFleets) {
      if (v == 1) continue;
      const FleetCell& c = cells.at({bed, v});
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

  // The twin rides its own grid, so the curve above (and its baseline)
  // is untouched by the coordination axis.
  const CoordTwin twin = run_coord_twin(
      fleet_spec("fleet_contention_coord", {"VanLAN"}, {4}, spec.grid.seeds,
                 60.0),
      runner);
  std::cout << "\nVanLAN V=4 coord twin: delivery "
            << TextTable::pct(twin.coord_delivery, 1) << " (PAB "
            << TextTable::pct(twin.pab_delivery, 1) << ", ratio "
            << TextTable::num(twin.delivery_ratio(), 3) << "), jain "
            << TextTable::num(twin.coord_jain, 3) << " (PAB "
            << TextTable::num(twin.pab_jain, 3) << ")\n";

  std::vector<ValueEntry> entries;
  for (const auto& bed : spec.grid.testbeds) {
    for (const int v : kFleets) {
      const FleetCell& c = cells.at({bed, v});
      const std::string prefix =
          "FleetContention/" + bed + "/V" + std::to_string(v) + "/";
      entries.push_back({prefix + "jain_delivery", c.jain_delivery, true});
      entries.push_back({prefix + "jain_airtime", c.jain_airtime, true});
      entries.push_back({prefix + "per_vehicle_pkts_per_day",
                         c.per_vehicle_per_day(v), true});
    }
  }
  entries.push_back({"FleetContention/VanLAN/V4/coord_delivery_ratio",
                     twin.delivery_ratio(), true});
  entries.push_back(
      {"FleetContention/VanLAN/V4/coord_jain_delivery", twin.coord_jain,
       true});
  return entries;
}

std::vector<ValueEntry> vifi::bench::fleet_replay() {
  // Before the scratch directory exists: a malformed VIFI_BENCH_SCALE
  // exits on the spot, past any destructor.
  const std::vector<std::uint64_t> seeds = replicate_seeds();

  // --- The catalog pairs: recorded V-bus trips, and V-bus trips
  // synthesized from the model fitted on the recorded 16-bus campaign.
  const ScratchDir dir("vifi_fleet_replay");
  const tracegen::TraceModel model = fleet_model();
  const std::vector<std::string> sources{"real", "synth"};
  std::map<std::pair<int, std::string>, std::string> catalog_dirs;
  for (const int v : kFleets) {
    const std::string real = "real_v" + std::to_string(v);
    tracegen::write_catalog(dir.sub(real), real, record_fleet(v));
    catalog_dirs[{v, "real"}] = dir.sub(real);
    catalog_dirs[{v, "synth"}] = write_synth_catalog(model, dir, v, 60.0);
  }

  // --- One replay point per (V, source, replicate seed), all on one pool.
  // Each (V, source) is its own mini-grid because the catalog must match
  // the point's fleet size.
  std::vector<runtime::ExperimentPoint> points;
  for (const int v : kFleets)
    for (const std::string& source : sources)
      append_points(points, replay_spec("fleet_replay",
                                        catalog_dirs.at({v, source}), v,
                                        seeds));
  const runtime::Runner pool({.threads = 0});
  const runtime::ResultSink sink = pool.run(points, runtime::run_point);
  require_no_errors(sink);
  // The acceptance property: the replay sweep is a pure function of its
  // points — byte-identical for any thread count.
  const bool deterministic = same_bytes(
      sink, runtime::Runner({.threads = 1}).run(points, runtime::run_point));

  // Classify each point by exact catalog directory (substring matching on
  // the path would misfire on e.g. a TMPDIR containing "synth").
  std::map<std::string, std::string> source_of_dir;
  for (const auto& [key, path] : catalog_dirs) source_of_dir[path] = key.second;
  std::map<std::pair<int, std::string>, FleetCell> cells;
  for (const auto& r : sink.ordered())
    cells[{r.fleet, source_of_dir.at(r.trace_set)}].add(r);

  TextTable table("Fleet replay — " + std::string(kDieselNet) +
                  ", live ViFi over TraceCatalogs, 60 s trips");
  table.set_header({"V", "catalog", "delivery", "pkts/day",
                    "pkts/day per veh", "min veh delivery",
                    "jain(delivery)"});
  for (const int v : kFleets) {
    for (const std::string& source : sources) {
      const FleetCell& c = cells.at({v, source});
      table.add_row({std::to_string(v), source,
                     TextTable::pct(c.delivery_rate, 1),
                     TextTable::num(c.aggregate_per_day, 0),
                     TextTable::num(c.per_vehicle_per_day(v), 0),
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
  if (!deterministic)
    throw std::runtime_error("replay sweep: parallel and 1-thread differ");

  // --- The twin replays the recorded V=4 catalog, with coord's predictor
  // history fitted from that same catalog (the executor's catalog path).
  const CoordTwin twin = run_coord_twin(
      replay_spec("fleet_replay_coord", catalog_dirs.at({4, "real"}), 4,
                  seeds),
      pool);
  std::cout << "V=4 real-catalog coord twin: delivery "
            << TextTable::pct(twin.coord_delivery, 1) << " (PAB "
            << TextTable::pct(twin.pab_delivery, 1) << ", ratio "
            << TextTable::num(twin.delivery_ratio(), 3) << ")\n";

  std::vector<ValueEntry> entries;
  for (const int v : kFleets) {
    for (const std::string& source : sources) {
      const FleetCell& c = cells.at({v, source});
      const std::string prefix = "FleetReplay/" + std::string(kDieselNet) +
                                 "/V" + std::to_string(v) + "/" + source +
                                 "/";
      entries.push_back({prefix + "delivery_rate", c.delivery_rate, true});
      entries.push_back({prefix + "jain_delivery", c.jain_delivery, true});
    }
  }
  entries.push_back({"FleetReplay/" + std::string(kDieselNet) +
                         "/V4/real/coord_delivery_ratio",
                     twin.delivery_ratio(), true});
  return entries;
}

std::vector<ValueEntry> vifi::bench::fleet_large() {
  std::vector<ValueEntry> entries = live_large();
  const std::vector<ValueEntry> replay = replay_large();
  entries.insert(entries.end(), replay.begin(), replay.end());
  return entries;
}

void vifi::bench::fleet_v1024() {
  runtime::ExperimentSpec spec =
      fleet_spec("fleet_scale_v1024", {kDieselNet}, {1024}, {1}, 15.0);
  spec.cull_medium = true;
  const runtime::ResultSink sink = timed("V=1024 culled trip", [&] {
    return runtime::Runner({.threads = 0}).run(spec);
  });
  require_no_errors(sink);
  for (const auto& r : sink.ordered())
    std::cout << "V=1024 culled trip (15 s sim): delivery "
              << TextTable::pct(r.metrics.at("delivery_rate"), 1)
              << ", jain(delivery) "
              << TextTable::num(r.metrics.at("fairness_jain_delivery"), 3)
              << "\n";
  std::cout << "V=1024 completion check: OK\n";

  const ScratchDir dir("vifi_fleet_replay_v1024");
  const runtime::ExperimentPoint point =
      replay_spec("fleet_replay_v1024",
                  write_synth_catalog(fleet_model(), dir, 1024, 10.0), 1024,
                  {1})
          .enumerate()
          .front();
  const runtime::PointResult r = timed("V=1024 streamed replay", [&] {
    return runtime::run_point_sharded(point, runtime::Runner({.threads = 0}));
  });
  std::cout << "V=1024 streamed replay (10 s trip): delivery "
            << TextTable::pct(r.metrics.at("delivery_rate"), 1)
            << ", jain(delivery) "
            << TextTable::num(r.metrics.at("fairness_jain_delivery"), 3)
            << "\nV=1024 completion check: OK\n";
}
