#pragma once

/// \file experiment.h
/// Declarative description of an experiment sweep. A `ParamGrid` enumerates
/// scenario points (testbed × handoff policy × replicate seed); an
/// `ExperimentSpec` binds the grid to shared workload knobs (campaign
/// length, workload kind, session definition). Every point carries seeds
/// derived deterministically from (base seed, point coordinates), so a
/// sweep's results are bit-identical regardless of execution order or
/// worker count.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/sessions.h"
#include "runtime/result.h"
#include "scenario/testbed.h"

namespace vifi::runtime {

/// Mixes a value or label into a seed (splitmix64 finalizer, the same
/// generator family `Rng` uses for stream forking).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t value);
std::uint64_t mix_seed(std::uint64_t seed, std::string_view label);

/// The axes of a sweep, enumerated row-major in declaration order.
struct ParamGrid {
  std::vector<std::string> testbeds{"VanLAN"};
  /// Vehicles riding each testbed (VanLAN ran two shuttles, DieselNet is a
  /// bus system); 1 is the paper's single instrumented vehicle.
  std::vector<int> fleet_sizes{1};
  /// TraceCatalog directories to replay (tracegen). Empty — the default —
  /// means the sweep generates its campaigns stochastically as before; a
  /// non-empty list makes replay scenarios one more enumerated axis: each
  /// point loads its catalog (shared, immutable, process-wide cache) and
  /// replays its trips instead of generating them. A catalog must match
  /// the point's testbed and fleet size.
  std::vector<std::string> trace_sets{};
  std::vector<std::string> policies{"BRR"};
  /// CoordTier axis for live ("cbr") points: "pab" runs the historical
  /// vehicle-driven stack, "coord" rides the BS-side ConnectivityManager
  /// (predictive handoff, pre-staging, relay suppression). Empty — the
  /// default — enumerates one pass with no coordination value, keeping
  /// historical sweeps byte-identical. Points differing only in
  /// coordination share every seed, so coord-vs-pab compares the same
  /// trips.
  std::vector<std::string> coordinations{};
  std::vector<std::uint64_t> seeds{1};

  std::size_t size() const {
    return testbeds.size() * fleet_sizes.size() *
           std::max<std::size_t>(1, trace_sets.size()) * policies.size() *
           std::max<std::size_t>(1, coordinations.size()) * seeds.size();
  }
};

/// The generated replay campaigns of one enumerate() call, shared by the
/// points that replay them (defined in executor.cc). Each campaign is
/// written once, by the points that need it, and is read-only afterwards.
class CampaignPool;

/// A pool whose every campaign is replayed by \p consumers points; a
/// campaign is dropped once its last consumer finishes.
std::shared_ptr<CampaignPool> make_campaign_pool(std::size_t consumers);

/// One scenario point, fully self-describing: a worker builds its own
/// Testbed, Simulator and Rng streams from the fields below, so its result
/// depends on nothing else. The one thing points share is `campaigns`, a
/// write-once campaign that is byte for byte what the point would have
/// generated alone.
struct ExperimentPoint {
  std::size_t index = 0;  ///< Row-major position in the grid.
  std::string testbed;    ///< "VanLAN", "DieselNet-Ch1", "DieselNet-Ch6".
  int fleet_size = 1;     ///< Vehicles riding the testbed.
  /// TraceCatalog directory this point replays; empty = generate the
  /// campaign stochastically from campaign_seed (the historical path).
  std::string trace_set;
  std::string policy;     ///< A §3.1 replay or a §5 live policy name.
  /// CoordTier axis value: "" (no axis), "pab" (explicit baseline) or
  /// "coord" (BS-side predictive coordination). Deliberately NOT mixed
  /// into any seed: a coord point and its pab twin run identical trips.
  std::string coordination;
  std::uint64_t seed = 1; ///< Replicate seed (the grid's seeds axis).
  int days = 1;
  int trips_per_day = 2;
  Time trip_duration = Time::zero();  ///< Zero means one full route lap.
  std::string workload = "replay";    ///< "replay" (§3.1) or "cbr" (§5.2).
  analysis::SessionDef session;
  /// Live ("cbr") points only: run the medium with spatial interference
  /// culling derived from the testbed (Testbed::make_culling) — the
  /// city-scale operating mode. Culling skips provably sub-audibility
  /// receivers, so results are deterministic but differ from the unculled
  /// default; large-fleet sweeps opt in, the historical grids stay off.
  bool cull_medium = false;

  /// TripScope: directory for per-point timeline exports. Non-empty makes
  /// run_point() record the whole point into a TraceRecorder (unless one is
  /// already installed on the thread) and write
  /// `point_<index>.trace.json` / `.jsonl` / `.metrics.json` there.
  std::string trace_dir;
  /// TripScope: spool the point's full event stream to
  /// `<trace_dir>/point_<index>.spool` (obs::StreamSink) instead of the
  /// default in-memory rings — full fidelity past the ring horizon, at
  /// the cost of disk I/O. Requires a non-empty trace_dir.
  bool trace_stream = false;
  /// TripScope: registered metric names (exact flattened keys, or bare
  /// names summed across label variants) to surface as result columns
  /// (`obs.<name>` in the point's metrics map).
  std::vector<std::string> metric_columns;

  /// Campaign realisation seed — a function of (base seed, testbed, fleet
  /// size, replicate seed) only. Points that differ only in policy replay
  /// the *same* traces, as in the paper's policy comparisons. (Fleet size
  /// 1 mixes nothing in, so single-vehicle sweeps keep their pre-fleet
  /// seed derivation and outputs.)
  std::uint64_t campaign_seed = 0;
  /// Stream for point-local randomness (live trips, subset draws); also
  /// mixes the policy so live stacks don't share draws across points.
  std::uint64_t point_seed = 0;

  /// Stochastic replay points of one enumerate() call share this pool when
  /// several points (policies x coordinations) replay each campaign: a
  /// campaign is generated once, its trips split among the points needing
  /// it. Null — cbr and catalog points, hand-built points — means the
  /// point generates its campaign privately, through the same code.
  std::shared_ptr<CampaignPool> campaigns;
};

/// A declarative sweep: grid axes plus the workload knobs shared by every
/// point.
struct ExperimentSpec {
  std::string name = "sweep";
  ParamGrid grid;
  int days = 1;
  int trips_per_day = 2;
  Time trip_duration = Time::zero();
  std::string workload = "replay";
  analysis::SessionDef session;
  /// Copied onto every point; see ExperimentPoint::cull_medium.
  bool cull_medium = false;
  std::uint64_t base_seed = 20080817;
  /// TripScope knobs, copied verbatim onto every point (see
  /// ExperimentPoint::trace_dir / trace_stream / metric_columns).
  std::string trace_dir;
  bool trace_stream = false;
  std::vector<std::string> metric_columns;

  /// Row-major (testbed, fleet size, policy, seed) enumeration with
  /// derived seeds. Stochastic replay points share one CampaignPool when
  /// the grid has more than one policy x coordination pair.
  std::vector<ExperimentPoint> enumerate() const;
};

/// A result carrying only \p point's identity columns (index, testbed,
/// fleet, trace_set, policy, coordination, seed) — the row every executor
/// fills in, and the one an error row keeps.
PointResult identity_of(const ExperimentPoint& point);

/// Testbed factory by grid name, carrying \p fleet_size vehicles. Throws
/// ContractViolation on unknown names.
scenario::Testbed make_testbed(const std::string& name, int fleet_size = 1);

/// True for names make_testbed() accepts.
bool known_testbed(const std::string& name);

}  // namespace vifi::runtime
