// VifiBench: the repository's end-to-end and per-layer benchmark harness.
// One workload runs per process.
//
//   vifibench gen --workload catalog_stream --seed S --out DIR
//   vifibench run --workload W --seed S --seconds T --trace 0|1 --work DIR
//                 [--catalog DIR]
//
// `run --trace 0` repeats the workload's unit (one trip, one sweep or one
// catalog point, with inputs drawn from --seed only) through the public
// entry points as often as T seconds buy at the unit's nominal length,
// with tracing off, and reports host speed, set-up time and peak memory.
// `run --trace 1` runs the unit once the same way, then once more
// assembled from the stack's public parts with timing wrappers at each
// layer boundary, checks that the second pass reproduces the first pass's
// exact counts, and reports the per-layer split.
//
// `gen` writes the catalog_stream input in its own process, so generation
// time and memory never reach the measured run.
//
// Output: one JSON object on stdout (benchmark/run.py formats it);
// diagnostics go to stderr. Exit status 1 when any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cbr.h"
#include "apps/transport.h"
#include "channel/vehicular.h"
#include "coord/manager.h"
#include "coord/predictor.h"
#include "core/system.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "obs/spool.h"
#include "runtime/executor.h"
#include "runtime/experiment.h"
#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "trace/loss_schedule.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/synth.h"

using namespace vifi;
namespace fs = std::filesystem;
using sim::NodeId;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, std::min(1.0, q)) * static_cast<double>(v.size() - 1) +
      0.5);
  return v[rank];
}

/// Exact, deterministic counts read from public accessors, keyed by the
/// per-layer metric they feed (plus a few point-level totals).
using Counts = std::map<std::string, double>;

Counts minus(Counts a, const Counts& b) {
  for (const auto& [k, v] : b) a[k] -= v;
  return a;
}

void add_into(Counts& into, const Counts& c) {
  for (const auto& [k, v] : c) into[k] += v;
}

/// Check failures of one run; each names the op it broke. Runner workers
/// add concurrently; the count is read after the pool has drained.
struct Failures {
  std::vector<std::string> messages;
  std::mutex mu;
  void add(std::string m) {
    const std::lock_guard<std::mutex> lock(mu);
    std::cerr << "vifibench: check failed: " << m << "\n";
    messages.push_back(std::move(m));
  }
};

/// Compares \p got against \p want on every key \p want carries.
bool same_counts(const Counts& want, const Counts& got, const std::string& what,
                 Failures& failures) {
  bool ok = true;
  for (const auto& [k, v] : want) {
    const auto it = got.find(k);
    if (it == got.end() || it->second != v) {
      std::ostringstream m;
      m.precision(17);
      m << what << ": " << k << " untraced " << v << ", traced "
        << (it == got.end() ? std::string("missing")
                            : std::to_string(it->second));
      failures.add(m.str());
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Layer probes for the traced pass. They wrap the two hot boundaries the
// stack exposes as values: the PositionFn the channel and the culling grid
// call (mobility) and the LossModel the medium calls (channel).
// ---------------------------------------------------------------------------

struct HotProbes {
  double mobility_s = 0.0;
  std::uint64_t position_calls = 0;
  double channel_s = 0.0;  ///< Excludes mobility time nested inside.
  std::uint64_t sample_calls = 0;
  std::uint64_t prob_calls = 0;
  std::uint64_t samples_delivered = 0;
};

channel::VehicularChannel::PositionFn timed_positions(
    const scenario::Testbed& bed, HotProbes& probes) {
  return [&bed, &probes](NodeId node, Time t) {
    const auto t0 = Clock::now();
    const mobility::Vec2 p = bed.position(node, t);
    probes.mobility_s += since(t0);
    ++probes.position_calls;
    return p;
  };
}

/// LossModel decorator: forwards every call and charges its self time
/// (minus nested mobility) to the channel layer.
class TimedLoss final : public channel::LossModel {
 public:
  TimedLoss(channel::LossModel& inner, HotProbes& probes)
      : inner_(inner), probes_(probes) {}

  bool sample_delivery(NodeId tx, NodeId rx, Time now) override {
    const double nested = probes_.mobility_s;
    const auto t0 = Clock::now();
    const bool ok = inner_.sample_delivery(tx, rx, now);
    probes_.channel_s += since(t0) - (probes_.mobility_s - nested);
    ++probes_.sample_calls;
    if (ok) ++probes_.samples_delivered;
    return ok;
  }

  double reception_prob(NodeId tx, NodeId rx, Time now) const override {
    const double nested = probes_.mobility_s;
    const auto t0 = Clock::now();
    const double p = inner_.reception_prob(tx, rx, now);
    probes_.channel_s += since(t0) - (probes_.mobility_s - nested);
    ++probes_.prob_calls;
    return p;
  }

 private:
  channel::LossModel& inner_;
  HotProbes& probes_;
};

// ---------------------------------------------------------------------------
// Live-trip pieces shared by both passes.
// ---------------------------------------------------------------------------

/// The §5.2 live ViFi configuration the sweep executor runs "ViFi" points
/// under: diversity and salvage on, link-layer retransmissions off, and the
/// testbed's spatial culling when \p cull.
core::SystemConfig vifi_config(const scenario::Testbed& bed, bool cull) {
  core::SystemConfig cfg;
  cfg.vifi.max_retx = 0;
  if (cull)
    cfg.medium.culling = bed.make_culling(cfg.medium.audibility_threshold);
  return cfg;
}

Counts stack_counts(const sim::Simulator& sim, core::VifiSystem& sys,
                    const coord::ConnectivityManager* coord) {
  const mac::Medium& m = sys.medium();
  const core::VifiStats& st = sys.stats();
  using net::Direction;
  Counts c{
      {"sim.events", static_cast<double>(sim.events_executed())},
      {"mac.transmissions", static_cast<double>(m.transmissions())},
      {"mac.decode_attempts", static_cast<double>(m.decode_attempts())},
      {"mac.deliveries", static_cast<double>(m.deliveries())},
      {"mac.collisions", static_cast<double>(m.collisions())},
      {"mac.channel_losses", static_cast<double>(m.channel_losses())},
      {"net.packets_created",
       static_cast<double>(sys.packets().packets_created())},
      {"core.wireless_data_tx",
       static_cast<double>(st.wireless_data_tx(Direction::Upstream) +
                           st.wireless_data_tx(Direction::Downstream))},
      {"core.app_delivered",
       static_cast<double>(st.app_delivered(Direction::Upstream) +
                           st.app_delivered(Direction::Downstream))},
      {"core.salvaged", static_cast<double>(st.salvaged())},
  };
  if (coord != nullptr) {
    c["coord.transitions"] = static_cast<double>(coord->transitions());
    c["coord.prestages"] = static_cast<double>(coord->prestages());
    c["coord.suppressed_relays"] =
        static_cast<double>(coord->suppressed_relays());
  }
  return c;
}

using Cbrs = std::vector<std::unique_ptr<apps::CbrWorkload>>;

Cbrs start_cbr(sim::Simulator& sim,
               const std::vector<std::unique_ptr<apps::VifiTransport>>& ts,
               Time until) {
  Cbrs cbrs;
  for (const auto& t : ts)
    cbrs.push_back(std::make_unique<apps::CbrWorkload>(sim, *t));
  for (auto& cbr : cbrs) cbr->start(until);
  return cbrs;
}

/// Application counts of a trip's probe streams, plus the `apps.sent ==
/// 2 x slots` check.
Counts cbr_counts(const Cbrs& cbrs, const std::string& trip,
                  Failures& failures) {
  double sent = 0.0, delivered = 0.0, slots = 0.0;
  for (const auto& cbr : cbrs) {
    sent += static_cast<double>(cbr->sent());
    delivered += static_cast<double>(cbr->delivered());
    slots += static_cast<double>(cbr->slot_stream().delivered.size());
  }
  if (sent != 2.0 * slots)
    failures.add(trip + ": apps.sent " + std::to_string(sent) +
                 " != 2 x slots " + std::to_string(slots));
  return {{"apps.sent", sent}, {"apps.delivered", delivered},
          {"apps.slots", slots}};
}

/// Checks that decode attempts partition into deliveries, collisions and
/// channel losses, plus the successful decodes of frames still on the air
/// (a saturated fleet's medium is never globally idle, so those must be
/// counted, not waited out). The trip runs on for a recorded window longer
/// than any frame, so every frame on the air at its end started inside
/// it; their decodes are the window's FrameDecode events sharing a
/// transmitter and start time with such a FrameTx.
void check_decode_identity(sim::Simulator& sim, core::VifiSystem& sys,
                           const std::string& trip, Failures& failures) {
  obs::TraceRecorder rec;
  const obs::TraceScope scope(rec);
  // Longer than the medium's 2000-byte frame bound (16.2 ms).
  const Time now = sim.now() + Time::millis(20);
  sim.run_until(now);
  const std::vector<obs::TraceEvent> events = rec.merged();
  std::set<std::pair<NodeId, Time>> on_air;
  for (const obs::TraceEvent& e : events)
    if (e.kind == obs::EventKind::FrameTx && e.at + Time::seconds(e.a) > now)
      on_air.emplace(e.node, e.at);
  std::uint64_t in_flight = 0;
  for (const obs::TraceEvent& e : events)
    if (e.kind == obs::EventKind::FrameDecode &&
        on_air.contains({e.peer, e.at}))
      ++in_flight;
  const mac::Medium& m = sys.medium();
  const std::uint64_t resolved =
      m.deliveries() + m.collisions() + m.channel_losses();
  if (m.decode_attempts() != resolved + in_flight)
    failures.add(trip + ": decode_attempts " +
                 std::to_string(m.decode_attempts()) +
                 " != deliveries + collisions + channel_losses " +
                 std::to_string(resolved) + " + in-flight decodes " +
                 std::to_string(in_flight));
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Metric values by name; per-layer metrics a workload does not exercise
/// read 0.
using Values = std::map<std::string, double>;

/// One repetition of a workload's unit. Every repetition of a run gets the
/// same inputs, so their slices line up one to one.
struct UnitResult {
  double setup_s = 0.0;
  double veh_s = 0.0;  ///< Simulated vehicle-seconds the timed section covers.
  /// Host seconds of each slice of the timed section, in order: one per
  /// simulated second for live fleets, the whole section otherwise.
  std::vector<double> slices_s;
  Counts counts;  ///< Exact counts of the timed section.
};

struct TracedResult {
  double timed_s = 0.0;  ///< Host seconds of the traced timed section.
  Counts counts;         ///< Compared against the untraced unit's counts.
  Values layers;         ///< Per-layer times and traced-only counts.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Ops (trips or points) in one unit; a unit that throws fails them all.
  virtual int ops_per_unit() const = 0;
  /// Host seconds one repetition's timed section takes on the reference
  /// machine (README); fixes the repetition count a --seconds budget buys.
  virtual double nominal_rep_s() const = 0;
  /// Sets the unit up and, unless \p setup_only, runs its timed section
  /// and checks its outputs, adding the ops that broke a check to
  /// \p failed_ops.
  virtual UnitResult run(bool setup_only, Failures& failures,
                         int& failed_ops) = 0;
  /// The traced pass over the same inputs.
  virtual TracedResult traced(Failures& failures, int& failed_ops) = 0;
};

/// Live VanLAN fleet: every vehicle runs a ViFi CBR probe stream. One unit
/// is one trip: the testbed, the stack and the 3 s protocol warm-up are
/// set-up; the CBR window plus a 1 s drain is the timed section.
class LiveFleet final : public Workload {
 public:
  LiveFleet(std::string name, std::uint64_t seed, int vehicles, bool cull,
            double cbr_s, double nominal_rep_s)
      : name_(std::move(name)),
        trip_seed_(runtime::mix_seed(seed, name_)),
        vehicles_(vehicles),
        cull_(cull),
        cbr_s_(cbr_s),
        nominal_rep_s_(nominal_rep_s) {}

  int ops_per_unit() const override { return 1; }
  double nominal_rep_s() const override { return nominal_rep_s_; }

  UnitResult run(bool setup_only, Failures& failures,
                 int& failed_ops) override {
    UnitResult r;
    const auto t0 = Clock::now();
    const scenario::Testbed bed = scenario::make_vanlan(vehicles_);
    scenario::LiveTrip live(bed, vifi_config(bed, cull_), trip_seed_);
    live.run_until(scenario::LiveTrip::warmup());
    r.setup_s = since(t0);
    if (setup_only) return r;

    const std::size_t before = failures.messages.size();
    const Counts warm = stack_counts(live.simulator(), live.system(), nullptr);
    const Time end = live.simulator().now() + cbr_window(bed);
    const Cbrs cbrs = start_cbr(live.simulator(), live.transports(), end);
    const Time stop = end + Time::seconds(1.0);
    for (Time t = live.simulator().now(); t < stop;) {
      t = std::min(stop, t + Time::seconds(1.0));
      const auto s0 = Clock::now();
      live.run_until(t);
      r.slices_s.push_back(since(s0));
    }
    r.veh_s = vehicles_ * (stop - scenario::LiveTrip::warmup()).to_seconds();
    const std::string trip = name_ + " trip";
    r.counts = minus(stack_counts(live.simulator(), live.system(), nullptr),
                     warm);
    add_into(r.counts, cbr_counts(cbrs, trip, failures));
    check_decode_identity(live.simulator(), live.system(), trip, failures);
    failed_ops += failures.messages.size() > before ? 1 : 0;
    return r;
  }

  /// LiveTrip's stochastic constructor, copied step for step, with the
  /// timed PositionFn in the channel and the culling grid and the timed
  /// LossModel under the medium.
  TracedResult traced(Failures& failures, int& failed_ops) override {
    TracedResult r;
    const std::size_t before = failures.messages.size();
    const scenario::Testbed bed = scenario::make_vanlan(vehicles_);
    HotProbes probes;
    const auto positions = timed_positions(bed, probes);
    sim::Simulator sim;
    const Rng root(trip_seed_);
    channel::VehicularChannel channel(bed.channel_params(), positions,
                                      root.fork("channel"));
    for (const NodeId v : bed.vehicle_ids()) channel.mark_mobile(v);
    TimedLoss loss(channel, probes);
    core::SystemConfig cfg = vifi_config(bed, cull_);
    if (cfg.medium.culling) cfg.medium.culling->position = positions;
    cfg.seed = root.fork("system").next_u64();
    core::VifiSystem system(sim, loss, bed.bs_ids(), bed.vehicle_ids(),
                            bed.wired_host(), cfg);
    std::vector<std::unique_ptr<apps::VifiTransport>> transports;
    for (const NodeId v : bed.vehicle_ids())
      transports.push_back(std::make_unique<apps::VifiTransport>(system, v));
    system.start();
    sim.run_until(scenario::LiveTrip::warmup());

    const Counts warm = stack_counts(sim, system, nullptr);
    probes = {};
    const Time end = sim.now() + cbr_window(bed);
    const Cbrs cbrs = start_cbr(sim, transports, end);
    const auto t1 = Clock::now();
    sim.run_until(end + Time::seconds(1.0));
    const double run_s = since(t1);
    r.timed_s = run_s;
    const HotProbes timed = probes;
    const double veh_s =
        vehicles_ * (sim.now() - scenario::LiveTrip::warmup()).to_seconds();
    const std::string trip = name_ + " traced trip";
    r.counts = minus(stack_counts(sim, system, nullptr), warm);
    add_into(r.counts, cbr_counts(cbrs, trip, failures));
    check_decode_identity(sim, system, trip, failures);
    failed_ops += failures.messages.size() > before ? 1 : 0;

    r.layers = {
        {"sim.run_self_s", run_s - timed.channel_s - timed.mobility_s},
        {"sim.events_per_veh_s", ratio(r.counts["sim.events"], veh_s)},
        {"mobility.position_calls", static_cast<double>(timed.position_calls)},
        {"mobility.self_s", timed.mobility_s},
        {"channel.sample_calls", static_cast<double>(timed.sample_calls)},
        {"channel.prob_calls", static_cast<double>(timed.prob_calls)},
        {"channel.self_s", timed.channel_s},
        {"channel.delivered_frac",
         ratio(static_cast<double>(timed.samples_delivered),
               static_cast<double>(timed.sample_calls))},
    };
    return r;
  }

 private:
  Time cbr_window(const scenario::Testbed& bed) const {
    return cbr_s_ > 0.0 ? Time::seconds(cbr_s_) : bed.trip_duration();
  }

  std::string name_;
  std::uint64_t trip_seed_;
  int vehicles_;
  bool cull_;
  double cbr_s_;  ///< 0 = one full route lap.
  double nominal_rep_s_;
};

/// The §3.1 handoff-policy study on the sweep runtime: both testbeds x the
/// six replay policies x kSeeds replicate seeds, 1 day x 12 trips per
/// point, on 2 workers. One unit is one Runner call; set-up is everything
/// before it.
class ReplaySweep final : public Workload {
 public:
  static constexpr int kSeeds = 1;
  static constexpr int kThreads = 2;

  explicit ReplaySweep(std::uint64_t seed) : seed_(seed) {
    for (const std::string& t : testbeds())
      lap_s_[t] = runtime::make_testbed(t).trip_duration().to_seconds();
  }

  static std::vector<std::string> testbeds() {
    return {"VanLAN", "DieselNet-Ch1"};
  }

  int ops_per_unit() const override {
    return static_cast<int>(testbeds().size() *
                            runtime::replay_policy_names().size()) *
           kSeeds;
  }
  double nominal_rep_s() const override { return 0.8; }

  UnitResult run(bool setup_only, Failures& failures,
                 int& failed_ops) override {
    UnitResult r;
    const auto t0 = Clock::now();
    const std::vector<runtime::ExperimentPoint> points = spec().enumerate();
    const runtime::Runner runner({.threads = kThreads});
    r.setup_s = since(t0);
    if (setup_only) return r;

    const auto t1 = Clock::now();
    const runtime::ResultSink sink = runner.run(points, runtime::run_point);
    r.slices_s.push_back(since(t1));
    results_ = sink.ordered();
    for (const runtime::PointResult& p : results_) {
      r.veh_s += p.fleet * points[p.index].days *
                 points[p.index].trips_per_day * lap_s_.at(p.testbed);
      if (!p.error.empty()) {
        failures.add(label(p) + ": " + p.error);
        ++failed_ops;
        continue;
      }
      add_into(r.counts, point_counts(p));
    }
    return r;
  }

  /// generate_campaign -> replay_trip -> outcomes_to_stream ->
  /// MetricAccumulator per point, as run_point chains them, through a
  /// timed PointFn on the same runner shape.
  TracedResult traced(Failures& failures, int& failed_ops) override {
    TracedResult r;
    const std::vector<runtime::ExperimentPoint> points = spec().enumerate();
    std::vector<PointTimes> times(points.size());
    const runtime::Runner runner({.threads = kThreads});
    const auto t0 = Clock::now();
    const runtime::ResultSink sink =
        runner.run(points, [&times](const runtime::ExperimentPoint& p) {
          return traced_point(p, times[p.index]);
        });
    r.timed_s = since(t0);

    const std::vector<runtime::PointResult> got = sink.ordered();
    PointTimes sum;
    std::vector<double> point_s;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const runtime::PointResult& p = got[i];
      const bool ok = p.error.empty() && i < results_.size() &&
                      p.metrics == results_[i].metrics &&
                      p.series == results_[i].series;
      if (!ok) {
        failures.add(label(p) + ": traced replay " +
                     (p.error.empty() ? "differs from run_point"
                                      : "failed: " + p.error));
        ++failed_ops;
      }
      if (p.error.empty()) add_into(r.counts, point_counts(p));
      const PointTimes& t = times[i];
      point_s.push_back(t.point_s);
      sum.point_s += t.point_s;
      sum.campaign_s += t.campaign_s;
      sum.replay_s += t.replay_s;
      sum.analysis_s += t.analysis_s;
      sum.trips += t.trips;
      sum.slots += t.slots;
    }
    r.layers = {
        {"scenario.campaign_s", sum.campaign_s},
        {"scenario.trips", sum.trips},
        {"handoff.replay_s", sum.replay_s},
        {"handoff.slots", sum.slots},
        {"analysis.self_s", sum.analysis_s},
        {"runtime.points", static_cast<double>(points.size())},
        {"runtime.point_p50_s", quantile(point_s, 0.5)},
        {"runtime.point_p90_s", quantile(point_s, 0.9)},
        {"runtime.busy_frac", ratio(sum.point_s, kThreads * r.timed_s)},
    };
    return r;
  }

 private:
  /// One traced point's layer times and replay counts.
  struct PointTimes {
    double point_s = 0.0, campaign_s = 0.0, replay_s = 0.0, analysis_s = 0.0;
    double trips = 0.0, slots = 0.0;
  };

  runtime::ExperimentSpec spec() const {
    runtime::ExperimentSpec s;
    s.name = "replay_sweep";
    s.grid.testbeds = testbeds();
    s.grid.policies = runtime::replay_policy_names();
    s.grid.seeds.clear();
    for (int k = 1; k <= kSeeds; ++k)
      s.grid.seeds.push_back(static_cast<std::uint64_t>(k));
    s.days = 1;
    s.trips_per_day = 12;
    s.workload = "replay";
    s.base_seed = runtime::mix_seed(seed_, "replay_sweep");
    return s;
  }

  static runtime::PointResult traced_point(const runtime::ExperimentPoint& p,
                                           PointTimes& t) {
    const auto t0 = Clock::now();
    runtime::PointResult r;
    r.index = p.index;
    r.testbed = p.testbed;
    r.fleet = p.fleet_size;
    r.policy = p.policy;
    r.seed = p.seed;
    const scenario::Testbed bed = runtime::make_testbed(p.testbed, p.fleet_size);
    scenario::CampaignConfig cfg;
    cfg.days = p.days;
    cfg.trips_per_day = p.trips_per_day;
    cfg.trip_duration = p.trip_duration;
    cfg.seed = p.campaign_seed;
    cfg.log_probes = true;
    cfg.log_bs_beacons = false;
    auto s0 = Clock::now();
    const trace::Campaign campaign = scenario::generate_campaign(bed, cfg);
    t.campaign_s = since(s0);
    runtime::MetricAccumulator acc;
    for (const trace::MeasurementTrace& trip : campaign.trips) {
      s0 = Clock::now();
      const std::vector<handoff::SlotOutcome> outcomes =
          runtime::replay_trip(trip, p.policy, campaign);
      t.replay_s += since(s0);
      t.slots += static_cast<double>(outcomes.size());
      s0 = Clock::now();
      acc.add_trip(runtime::outcomes_to_stream(outcomes), p.session);
      t.analysis_s += since(s0);
    }
    s0 = Clock::now();
    acc.finish(p.days, r);
    t.analysis_s += since(s0);
    t.trips = static_cast<double>(campaign.trips.size());
    t.point_s = since(t0);
    return r;
  }

  static Counts point_counts(const runtime::PointResult& p) {
    return {{"point.slots", p.metrics.at("slots")},
            {"point.packets_delivered", p.metrics.at("packets_delivered")},
            {"point.session_count", p.metrics.at("session_count")}};
  }

  static std::string label(const runtime::PointResult& p) {
    return "replay point " + std::to_string(p.index) + " (" + p.testbed +
           ", " + p.policy + ", seed " + std::to_string(p.seed) + ")";
  }

  std::uint64_t seed_;
  std::map<std::string, double> lap_s_;
  /// The last untraced repetition's points, for the traced comparison.
  std::vector<runtime::PointResult> results_;
};

constexpr const char* kCatalogTestbed = "DieselNet-Ch1";
constexpr int kCatalogFleet = 32;
constexpr int kCatalogTrips = 12;
constexpr double kCatalogTripSeconds = 20.0;

/// Per-kind footer counts reconciled against a full chunk scan (what
/// `tripscope query --counts` does). Returns obs.* counts.
Counts reconcile_spool(const std::string& path, const std::string& what,
                       Failures& failures) {
  const obs::SpoolReader reader(path);
  std::uint64_t scanned[obs::kEventKindCount] = {};
  std::uint64_t total = 0;
  reader.scan([&](const obs::TraceEvent& e) {
    ++scanned[static_cast<int>(e.kind)];
    ++total;
  });
  Counts c{{"obs.events", static_cast<double>(reader.recorded())},
           {"obs.spool_bytes", static_cast<double>(fs::file_size(path))}};
  for (int k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    // Log lines travel in the footer, not as chunk records.
    const std::uint64_t have =
        kind == obs::EventKind::Log
            ? static_cast<std::uint64_t>(reader.logs().size())
            : scanned[k];
    const std::uint64_t want = reader.kind_count(kind);
    if (have != want)
      failures.add(what + ": spool " + obs::to_string(kind) + " footer " +
                   std::to_string(want) + " != chunk scan " +
                   std::to_string(have));
    c[std::string("obs.kind.") + obs::to_string(kind)] =
        static_cast<double>(want);
  }
  if (total != reader.recorded())
    failures.add(what + ": spool scanned " + std::to_string(total) +
                 " records, footer says " + std::to_string(reader.recorded()));
  return c;
}

std::string point_spool(const std::string& dir) {
  return (fs::path(dir) / "point_0000.spool").string();
}

/// TraceForge catalog replay on the sharded runtime with CoordTier and a
/// streamed TripScope trace: run_point_sharded on 2 workers, then a
/// SpoolReader reconciliation, form the timed section.
class CatalogStreamWorkload final : public Workload {
 public:
  static constexpr int kThreads = 2;

  CatalogStreamWorkload(std::uint64_t seed, std::string catalog,
                        std::string work)
      : seed_(seed), catalog_(std::move(catalog)), work_(std::move(work)) {}

  int ops_per_unit() const override { return kCatalogTrips; }
  double nominal_rep_s() const override { return 2.5; }

  UnitResult run(bool setup_only, Failures& failures,
                 int& failed_ops) override {
    UnitResult r;
    const std::string dir = (fs::path(work_) / "point").string();
    // Every repetition pays the catalog parse, as one sweep invocation does.
    tracegen::drop_catalog_cache();
    const auto t0 = Clock::now();
    const runtime::ExperimentPoint p = point(dir);
    const runtime::Runner runner({.threads = kThreads});
    r.setup_s = since(t0);
    if (setup_only) return r;

    const std::size_t before = failures.messages.size();
    const std::string what = "catalog point";
    const auto t1 = Clock::now();
    const runtime::PointResult res = runtime::run_point_sharded(p, runner);
    r.counts = reconcile_spool(point_spool(dir), what, failures);
    r.slices_s.push_back(since(t1));
    r.veh_s = kCatalogFleet * kCatalogTrips * (kCatalogTripSeconds + 1.0);
    r.counts["point.packets_delivered"] = res.metrics.at("packets_delivered");
    r.counts["point.slots"] = res.metrics.at("slots");
    for (const auto& [column, name] : columns())
      r.counts[name] = res.metrics.at("obs." + column);
    if (r.counts["obs.dropped"] != 0.0)
      failures.add(what + ": obs.dropped " +
                   std::to_string(r.counts["obs.dropped"]));
    fs::remove_all(dir);
    if (failures.messages.size() > before) failed_ops += kCatalogTrips;
    return r;
  }

  /// run_point_sharded's trip body assembled from its parts: the stream
  /// loader, build_fleet_loss_schedule under the timed LossModel,
  /// fit_history + coord::attach, per-trip part spools absorbed in trip
  /// order, the exports, then the same reconciliation.
  TracedResult traced(Failures& failures, int& failed_ops) override {
    TracedResult r;
    const std::size_t before = failures.messages.size();
    const std::string dir = (fs::path(work_) / "traced").string();
    const runtime::ExperimentPoint p = point(dir);
    tracegen::drop_catalog_cache();
    const auto t0 = Clock::now();
    const scenario::Testbed bed = runtime::make_testbed(p.testbed, p.fleet_size);
    const tracegen::CatalogStream stream =
        tracegen::CatalogStream::open(p.trace_set);
    const auto catalog = tracegen::load_catalog_shared(p.trace_set);
    const double open_s = since(t0);

    auto s0 = Clock::now();
    core::SystemConfig sys = vifi_config(bed, false);
    sys.coord.enabled = true;
    std::vector<const trace::MeasurementTrace*> history;
    for (const trace::MeasurementTrace& t : catalog->traces())
      history.push_back(&t);
    sys.coord.history = coord::fit_history(history);
    const double fit_s = since(s0);

    fs::create_directories(dir);
    obs::TraceRecorder session(
        std::make_unique<obs::StreamSink>(point_spool(dir)));
    const std::size_t n = stream.trip_groups();
    std::vector<Trip> trips(n);
    const runtime::Runner runner({.threads = kThreads});
    s0 = Clock::now();
    const runtime::ResultSink sink =
        runner.run_indexed(n, [&](std::size_t i) {
          run_trip(bed, stream, sys, p.point_seed, session, i, trips[i],
                   failures);
          runtime::PointResult done;
          done.index = i;
          return done;
        });
    const double pool_s = since(s0);
    for (const runtime::PointResult& done : sink.ordered())
      if (!done.error.empty())
        failures.add("traced catalog trip " + std::to_string(done.index) +
                     ": " + done.error);

    // The sharded executor's stitch and export_tripscope's exports.
    s0 = Clock::now();
    Time base = session.time_base();
    for (Trip& t : trips) {
      if (t.recorder == nullptr) continue;
      session.absorb(*t.recorder, base);
      base = base + t.end;
      const std::string part = t.recorder->spool_path();
      t.recorder.reset();
      fs::remove(part);
    }
    session.set_time_base(base);
    {
      std::ofstream chrome(dir + "/point_0000.trace.json");
      obs::write_chrome_trace(session, chrome);
      std::ofstream jsonl(dir + "/point_0000.jsonl");
      obs::write_jsonl(session, jsonl);
    }
    session.finalize();
    const double finalize_s = since(s0);

    s0 = Clock::now();
    r.counts = reconcile_spool(point_spool(dir), "traced catalog point",
                               failures);
    const double query_s = since(s0);
    r.timed_s = since(t0);
    r.counts["obs.dropped"] = static_cast<double>(session.dropped());

    Trip sum;
    std::vector<double> trip_s;
    for (const Trip& t : trips) {
      add_into(r.counts, t.counts);
      trip_s.push_back(t.wall_s);
      sum.wall_s += t.wall_s;
      sum.load_s += t.load_s;
      sum.schedule_s += t.schedule_s;
      sum.run_s += t.run_s;
      sum.probes.mobility_s += t.probes.mobility_s;
      sum.probes.position_calls += t.probes.position_calls;
      sum.probes.channel_s += t.probes.channel_s;
      sum.probes.sample_calls += t.probes.sample_calls;
      sum.probes.prob_calls += t.probes.prob_calls;
      sum.probes.samples_delivered += t.probes.samples_delivered;
    }
    const double veh_s =
        kCatalogFleet * static_cast<double>(n) * (kCatalogTripSeconds + 1.0);
    r.layers = {
        {"sim.run_self_s",
         sum.run_s - sum.probes.channel_s - sum.probes.mobility_s},
        {"sim.events_per_veh_s", ratio(r.counts["sim.events"], veh_s)},
        {"mobility.position_calls",
         static_cast<double>(sum.probes.position_calls)},
        {"mobility.self_s", sum.probes.mobility_s},
        {"channel.sample_calls", static_cast<double>(sum.probes.sample_calls)},
        {"channel.prob_calls", static_cast<double>(sum.probes.prob_calls)},
        {"channel.self_s", sum.probes.channel_s},
        {"channel.delivered_frac",
         ratio(static_cast<double>(sum.probes.samples_delivered),
               static_cast<double>(sum.probes.sample_calls))},
        {"trace.schedule_build_s", sum.schedule_s},
        {"coord.fit_s", fit_s},
        {"tracegen.open_s", open_s},
        {"tracegen.load_group_s", sum.load_s},
        {"tracegen.groups", static_cast<double>(n)},
        {"runtime.points", static_cast<double>(n)},
        {"runtime.point_p50_s", quantile(trip_s, 0.5)},
        {"runtime.point_p90_s", quantile(trip_s, 0.9)},
        {"runtime.busy_frac", ratio(sum.wall_s, kThreads * pool_s)},
        {"obs.finalize_s", finalize_s},
        {"obs.query_s", query_s},
    };
    fs::remove_all(dir);
    if (failures.messages.size() > before) failed_ops += kCatalogTrips;
    return r;
  }

 private:
  /// One traced trip's recorder, probes, counts and layer times.
  struct Trip {
    std::unique_ptr<obs::TraceRecorder> recorder;
    HotProbes probes;
    Counts counts;
    Time end;
    double wall_s = 0.0, load_s = 0.0, schedule_s = 0.0, run_s = 0.0;
  };

  /// Registry metric columns the untraced point exposes, and the count
  /// each feeds.
  static const std::vector<std::pair<std::string, std::string>>& columns() {
    static const std::vector<std::pair<std::string, std::string>> c{
        {"mac.transmissions", "mac.transmissions"},
        {"mac.decode_attempts", "mac.decode_attempts"},
        {"mac.deliveries", "mac.deliveries"},
        {"mac.collisions", "mac.collisions"},
        {"mac.channel_losses", "mac.channel_losses"},
        {"core.wireless_data_tx", "core.wireless_data_tx"},
        {"core.app_delivered", "core.app_delivered"},
        {"core.salvaged", "core.salvaged"},
        {"coord.transitions", "coord.transitions"},
        {"coord.prestages", "coord.prestages"},
        {"coord.suppressed_relays", "coord.suppressed_relays"},
        {"app.cbr_sent", "apps.sent"},
        {"app.cbr_delivered", "apps.delivered"},
        {"obs.trace.dropped_events", "obs.dropped"},
    };
    return c;
  }

  runtime::ExperimentPoint point(const std::string& trace_dir) const {
    runtime::ExperimentSpec s;
    s.name = "catalog_stream";
    s.grid.testbeds = {kCatalogTestbed};
    s.grid.fleet_sizes = {kCatalogFleet};
    s.grid.trace_sets = {catalog_};
    s.grid.policies = {"ViFi"};
    s.grid.coordinations = {"coord"};
    s.grid.seeds = {1};
    s.workload = "cbr";
    s.base_seed = runtime::mix_seed(seed_, "catalog_stream");
    s.trace_dir = trace_dir;
    s.trace_stream = true;
    for (const auto& [column, name] : columns())
      s.metric_columns.push_back(column);
    return s.enumerate().front();
  }

  /// One trip group, as run_point_sharded's worker body and
  /// measure_live_trip run it.
  static void run_trip(const scenario::Testbed& bed,
                       const tracegen::CatalogStream& stream,
                       const core::SystemConfig& sys, std::uint64_t point_seed,
                       const obs::TraceRecorder& session, std::size_t i,
                       Trip& out, Failures& failures) {
    const auto t0 = Clock::now();
    char part[24];
    std::snprintf(part, sizeof(part), ".trip%05zu.part", i);
    out.recorder = std::make_unique<obs::TraceRecorder>(
        std::make_unique<obs::StreamSink>(session.spool_path() + part));
    std::optional<obs::TraceScope> scope(std::in_place, *out.recorder);

    auto s0 = Clock::now();
    const std::vector<trace::MeasurementTrace> traces = stream.load_group(i);
    out.load_s = since(s0);
    std::vector<const trace::MeasurementTrace*> ptrs;
    for (const trace::MeasurementTrace& t : traces) ptrs.push_back(&t);
    const Rng root(runtime::mix_seed(point_seed, static_cast<std::uint64_t>(i)));
    s0 = Clock::now();
    const auto schedule = trace::build_fleet_loss_schedule(
        ptrs, false, root.fork("schedule"));
    out.schedule_s = since(s0);

    HotProbes probes;
    TimedLoss loss(*schedule, probes);
    core::SystemConfig cfg = sys;
    cfg.seed = root.fork("system").next_u64();
    sim::Simulator sim;
    core::VifiSystem system(sim, loss, bed.bs_ids(), bed.vehicle_ids(),
                            bed.wired_host(), cfg);
    coord::ConnectivityManager coord(sim, cfg.coord);
    coord::attach(system, coord);
    std::vector<std::unique_ptr<apps::VifiTransport>> transports;
    for (const NodeId v : bed.vehicle_ids())
      transports.push_back(std::make_unique<apps::VifiTransport>(system, v));

    s0 = Clock::now();
    system.start();
    coord.start();
    sim.run_until(scenario::LiveTrip::warmup());
    out.run_s = since(s0);
    const Time end = std::max(sim.now(), traces.front().duration);
    const Cbrs cbrs = start_cbr(sim, transports, end);
    s0 = Clock::now();
    sim.run_until(end + Time::seconds(1.0));
    out.run_s += since(s0);
    out.end = sim.now();

    const std::string trip = "traced catalog trip " + std::to_string(i);
    out.counts = stack_counts(sim, system, &coord);
    add_into(out.counts, cbr_counts(cbrs, trip, failures));
    runtime::MetricAccumulator acc;
    for (const auto& cbr : cbrs) acc.add_trip(cbr->slot_stream(), {});
    out.counts["point.packets_delivered"] = static_cast<double>(acc.delivered);
    out.counts["point.slots"] = static_cast<double>(acc.slots);
    out.probes = probes;
    out.wall_s = since(t0);
    // The identity check steps the clock on, so it runs unrecorded.
    scope.reset();
    check_decode_identity(sim, system, trip, failures);
  }

  std::uint64_t seed_;
  std::string catalog_;
  std::string work_;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer split, in BENCHMARK.json's order. Exact counts come from
/// the untraced unit; times, probe counts and ratios from the traced pass.
constexpr MetricSpec kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.events_per_veh_s", "count/veh_s"},
    {"sim.run_self_s", "s"},
    {"mobility.position_calls", "count"},
    {"mobility.calls_per_tx", "calls/tx"},
    {"mobility.self_s", "s"},
    {"channel.sample_calls", "count"},
    {"channel.prob_calls", "count"},
    {"channel.self_s", "s"},
    {"channel.delivered_frac", "fraction"},
    {"trace.schedule_build_s", "s"},
    {"mac.transmissions", "count"},
    {"mac.decode_attempts", "count"},
    {"mac.deliveries", "count"},
    {"mac.collisions", "count"},
    {"mac.channel_losses", "count"},
    {"mac.decodes_per_tx", "decodes/tx"},
    {"mac.decode_yield", "fraction"},
    {"net.packets_created", "count"},
    {"core.wireless_data_tx", "count"},
    {"core.app_delivered", "count"},
    {"core.salvaged", "count"},
    {"core.efficiency", "fraction"},
    {"coord.transitions", "count"},
    {"coord.prestages", "count"},
    {"coord.suppressed_relays", "count"},
    {"coord.fit_s", "s"},
    {"apps.sent", "count"},
    {"apps.delivered", "count"},
    {"apps.delivery_rate", "fraction"},
    {"scenario.campaign_s", "s"},
    {"scenario.trips", "count"},
    {"handoff.replay_s", "s"},
    {"handoff.slots", "count"},
    {"analysis.self_s", "s"},
    {"tracegen.open_s", "s"},
    {"tracegen.load_group_s", "s"},
    {"tracegen.groups", "count"},
    {"runtime.points", "count"},
    {"runtime.point_p50_s", "s"},
    {"runtime.point_p90_s", "s"},
    {"runtime.busy_frac", "fraction"},
    {"obs.events", "count"},
    {"obs.dropped", "count"},
    {"obs.spool_mb", "MB"},
    {"obs.bytes_per_event", "B/event"},
    {"obs.finalize_s", "s"},
    {"obs.query_s", "s"},
    {"bench.trace_overhead", "x"},
};

/// Per-layer values: traced-pass layers plus exact counts and the ratios
/// derived from them.
Values layer_values(const Counts& c, const TracedResult& t,
                    double untraced_timed_s) {
  Values v;
  for (const MetricSpec& m : kLayerMetrics) {
    const auto it = c.find(m.name);
    v[m.name] = it != c.end() ? it->second : 0.0;
  }
  for (const auto& [k, x] : t.layers) v[k] = x;
  // Counts the untraced catalog point cannot expose come from the traced
  // pass, which reproduces every count they share.
  for (const char* k : {"sim.events", "net.packets_created"})
    if (c.find(k) == c.end() && t.counts.count(k) != 0) v[k] = t.counts.at(k);
  const auto get = [&](const char* k) {
    const auto it = c.find(k);
    return it != c.end() ? it->second : 0.0;
  };
  v["mobility.calls_per_tx"] =
      ratio(v["mobility.position_calls"], get("mac.transmissions"));
  v["mac.decodes_per_tx"] =
      ratio(get("mac.decode_attempts"), get("mac.transmissions"));
  v["mac.decode_yield"] =
      ratio(get("mac.deliveries"), get("mac.decode_attempts"));
  v["core.efficiency"] =
      ratio(get("core.app_delivered"), get("core.wireless_data_tx"));
  v["apps.delivery_rate"] = ratio(get("apps.delivered"), get("apps.sent"));
  v["obs.spool_mb"] = get("obs.spool_bytes") / 1e6;
  v["obs.bytes_per_event"] = ratio(get("obs.spool_bytes"), get("obs.events"));
  v["bench.trace_overhead"] = ratio(t.timed_s, untraced_timed_s);
  return v;
}

std::string json_number(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// Commands.
// ---------------------------------------------------------------------------

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work;
  std::string catalog;
  std::string out;
};

/// catalog_stream's input: a model fitted on a recorded 16-bus
/// DieselNet-Ch1 campaign synthesizes the V=32, 12-trip catalog.
int cmd_gen(const Options& o) {
  if (o.workload != "catalog_stream" || o.out.empty()) {
    std::cerr << "gen: only --workload catalog_stream, with --out DIR\n";
    return 2;
  }
  const scenario::Testbed recorded = runtime::make_testbed(kCatalogTestbed, 16);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 2;
  cfg.seed = runtime::mix_seed(o.seed, "catalog_stream/record");
  cfg.log_probes = false;
  const tracegen::TraceModel model =
      tracegen::fit_model(scenario::generate_campaign(recorded, cfg));
  tracegen::SynthesisSpec spec;
  spec.vehicles = kCatalogFleet;
  spec.days = 1;
  spec.trips_per_day = kCatalogTrips;
  spec.trip_duration = Time::seconds(kCatalogTripSeconds);
  spec.seed = runtime::mix_seed(o.seed, "catalog_stream/synth");
  tracegen::write_catalog(o.out, "vifibench",
                          tracegen::synthesize_fleet(model, spec));
  return 0;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "fleet256_culled")
    return std::make_unique<LiveFleet>(o.workload, o.seed, 256, true, 20.0,
                                       7.0);
  if (o.workload == "fleet16_allpairs")
    return std::make_unique<LiveFleet>(o.workload, o.seed, 16, false, 0.0,
                                       2.5);
  if (o.workload == "replay_sweep")
    return std::make_unique<ReplaySweep>(o.seed);
  if (o.workload == "catalog_stream") {
    if (o.catalog.empty())
      throw std::invalid_argument("catalog_stream needs --catalog DIR");
    return std::make_unique<CatalogStreamWorkload>(o.seed, o.catalog, o.work);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

int cmd_run(const Options& o) {
  if (o.work.empty() || o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1)) {
    std::cerr << "run: needs --work DIR, --seconds > 0 and --trace 0|1\n";
    return 2;
  }
  const std::unique_ptr<Workload> w = make_workload(o);
  fs::create_directories(o.work);

  Failures failures;
  const int ops = w->ops_per_unit();
  int attempted = 0, failed = 0, reps = 0;
  std::vector<double> setup_s, rep_rate;
  // The first good repetition's exact counts and slices; later ones must
  // repeat the counts, and each slice keeps its fastest host time.
  std::optional<Counts> counts;
  std::vector<double> fastest;
  double veh_s = 0.0, first_timed_s = 0.0, first_rss_mb = 0.0;
  // Trace runs measure one repetition. Untraced runs make the repetitions
  // --seconds buys at the nominal length: a count fixed per workload, so
  // a slow spell on the host cannot also shrink the sample.
  const int want_reps =
      o.trace == 1 ? 1
                   : std::max(2, static_cast<int>(std::lround(
                                     o.seconds / w->nominal_rep_s())));
  // Set-up samples: one per repetition, plus set-up-only repetitions after
  // each timed one until at least kMinSetups samples cover kMinSetupTotal
  // seconds (a few for a fleet's warm-up, up to kMaxSetups for a sweep's
  // microseconds). Spreading them over the run keeps a momentary stall
  // from setting a microsecond median.
  constexpr int kMinSetups = 5, kMaxSetups = 1000;
  constexpr double kMinSetupTotal = 0.2;
  int extra_setups_per_rep = 0;
  const auto sample_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      int ignored = 0;
      setup_s.push_back(w->run(true, failures, ignored).setup_s);
    }
  };
  while (reps < want_reps) {
    attempted += ops;
    int rep_failed = 0;
    try {
      const UnitResult r = w->run(false, failures, rep_failed);
      double rep_s = 0.0;
      for (const double s : r.slices_s) rep_s += s;
      setup_s.push_back(r.setup_s);
      rep_rate.push_back(ratio(r.veh_s, rep_s));
      if (!counts) {
        counts = r.counts;
        fastest = r.slices_s;
        veh_s = r.veh_s;
        first_timed_s = rep_s;
        // Peak memory of one pass over the workload; identical later
        // repetitions would only add allocator fragmentation.
        first_rss_mb = peak_rss_mb();
        if (o.trace == 0) {
          const int needed = std::clamp(
              static_cast<int>(std::ceil(kMinSetupTotal /
                                         std::max(r.setup_s, 1e-9))),
              kMinSetups, kMaxSetups);
          extra_setups_per_rep = (needed - 1) / want_reps;
        }
      } else if (r.counts != *counts || r.slices_s.size() != fastest.size()) {
        failures.add(o.workload + " repetition " + std::to_string(reps) +
                     ": exact counts differ from the first repetition");
        rep_failed = ops;
      } else {
        for (std::size_t i = 0; i < fastest.size(); ++i)
          fastest[i] = std::min(fastest[i], r.slices_s[i]);
      }
    } catch (const std::exception& e) {
      failures.add(o.workload + " repetition " + std::to_string(reps) + ": " +
                   e.what());
      rep_failed = ops;
    }
    failed += std::min(rep_failed, ops);
    ++reps;
    sample_setups(extra_setups_per_rep);
  }
  if (!counts) counts.emplace();

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  Counts out_counts = *counts;
  if (o.trace == 0) {
    sample_setups(kMinSetups - static_cast<int>(setup_s.size()));
    double fastest_s = 0.0;
    for (const double s : fastest) fastest_s += s;
    metrics = {{"veh_s_per_s", {ratio(veh_s, fastest_s), "veh_s/s"}},
               {"setup_s", {median(setup_s), "s"}},
               {"peak_rss_mb", {first_rss_mb, "MB"}}};
  } else {
    attempted += ops;
    int traced_failed = 0;
    TracedResult t;
    try {
      t = w->traced(failures, traced_failed);
      if (!same_counts(*counts, t.counts, o.workload + " traced pass",
                       failures))
        traced_failed = ops;
    } catch (const std::exception& e) {
      failures.add(o.workload + " traced pass: " + e.what());
      traced_failed = ops;
    }
    failed += std::min(traced_failed, ops);
    const Values v = layer_values(*counts, t, first_timed_s);
    for (const MetricSpec& m : kLayerMetrics)
      metrics.push_back({m.name, {v.at(m.name), m.unit}});
    for (const auto& [k, x] : t.counts) out_counts.emplace("traced." + k, x);
    for (const char* k : {"mobility.position_calls", "channel.sample_calls",
                          "channel.prob_calls"})
      out_counts["traced." + std::string(k)] = v.at(k);
  }

  std::ostringstream js;
  js << "{\"workload\": " << json_string(o.workload) << ", \"seed\": "
     << o.seed << ", \"trace\": " << o.trace << ", \"repetitions\": " << reps
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.messages.size() && i < 20; ++i)
    js << (i ? ", " : "") << json_string(failures.messages[i]);
  js << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    js << (i ? ", " : "") << json_string(metrics[i].first)
       << ": {\"value\": " << json_number(metrics[i].second.first)
       << ", \"unit\": " << json_string(metrics[i].second.second) << "}";
  js << "}, \"samples\": {\"veh_s_per_s\": [";
  for (std::size_t i = 0; i < rep_rate.size(); ++i)
    js << (i ? ", " : "") << json_number(rep_rate[i]);
  js << "], \"setup_s_count\": " << setup_s.size() << "}, \"counts\": {";
  bool first = true;
  for (const auto& [k, x] : out_counts) {
    js << (first ? "" : ", ") << json_string(k) << ": " << json_number(x);
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return failures.messages.empty() && failed == 0 ? 0 : 1;
}

int usage() {
  std::cerr
      << "Usage:\n"
      << "  vifibench gen --workload catalog_stream --seed S --out DIR\n"
      << "  vifibench run --workload W --seed S --seconds T --trace 0|1\n"
      << "                --work DIR [--catalog DIR]\n"
      << "Workloads: fleet256_culled fleet16_allpairs replay_sweep "
         "catalog_stream\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options o;
  o.command = argv[1];
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--trace") o.trace = std::stoi(value);
      else if (arg == "--work") o.work = value;
      else if (arg == "--catalog") o.catalog = value;
      else if (arg == "--out") o.out = value;
      else return usage();
    }
    if (o.command == "gen") return cmd_gen(o);
    if (o.command == "run") return cmd_run(o);
  } catch (const std::exception& e) {
    std::cerr << "vifibench " << o.command << ": " << e.what() << "\n";
    return 2;
  }
  return usage();
}
