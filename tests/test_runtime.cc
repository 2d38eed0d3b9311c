// Tests for the parallel experiment runtime: grid enumeration, seed
// derivation, thread-safe result aggregation, and — the core contract —
// byte-identical serialised output regardless of worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/recorder.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "tracegen/catalog.h"
#include "util/contracts.h"

namespace vifi::runtime {
namespace {

ExperimentSpec small_replay_spec() {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"AllBSes", "BRR"};
  spec.grid.seeds = {1, 2};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.base_seed = 99;
  return spec;
}

TEST(ParamGrid, EnumeratesRowMajorWithDenseIndices) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.policies = {"BRR", "BestBS", "AllBSes"};
  spec.grid.seeds = {1, 2};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 12u);
  EXPECT_EQ(points.size(), spec.grid.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
  // Row-major: seeds vary fastest, testbeds slowest.
  EXPECT_EQ(points[0].testbed, "VanLAN");
  EXPECT_EQ(points[0].policy, "BRR");
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);
  EXPECT_EQ(points[2].policy, "BestBS");
  EXPECT_EQ(points[6].testbed, "DieselNet-Ch1");
}

TEST(ParamGrid, CampaignSeedIgnoresPolicyButPointSeedDoesNot) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"BRR", "BestBS"};
  spec.grid.seeds = {7};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 2u);
  // Policies are compared on the same campaign realisation...
  EXPECT_EQ(points[0].campaign_seed, points[1].campaign_seed);
  // ...but point-local streams must not collide across policies.
  EXPECT_NE(points[0].point_seed, points[1].point_seed);
}

TEST(ParamGrid, SeedsDifferAcrossAxes) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1", "DieselNet-Ch6"};
  spec.grid.policies = {"BRR"};
  spec.grid.seeds = {1, 2, 3, 4};
  std::set<std::uint64_t> campaign_seeds;
  for (const auto& p : spec.enumerate()) campaign_seeds.insert(p.campaign_seed);
  EXPECT_EQ(campaign_seeds.size(), 12u);
}

TEST(ParamGrid, FleetAxisEnumeratesBetweenTestbedAndPolicy) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.fleet_sizes = {1, 4};
  spec.grid.policies = {"ViFi", "BRR"};
  spec.grid.seeds = {1};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].fleet_size, 1);
  EXPECT_EQ(points[0].policy, "ViFi");
  EXPECT_EQ(points[1].policy, "BRR");
  EXPECT_EQ(points[2].fleet_size, 4);
  // Fleet-1 points keep the historical (base seed, testbed, seed)
  // derivation; larger fleets realise different campaigns.
  ExperimentSpec single = spec;
  single.grid.fleet_sizes = {1};
  EXPECT_EQ(points[0].campaign_seed, single.enumerate()[0].campaign_seed);
  EXPECT_NE(points[0].campaign_seed, points[2].campaign_seed);
}

TEST(MakeTestbed, FleetSizePropagatesToTheTestbed) {
  const scenario::Testbed bed = make_testbed("VanLAN", 3);
  EXPECT_EQ(bed.fleet_size(), 3);
  EXPECT_EQ(bed.vehicle_ids().size(), 3u);
}

TEST(MixSeed, DeterministicAndSensitive) {
  EXPECT_EQ(mix_seed(1, "abc"), mix_seed(1, "abc"));
  EXPECT_NE(mix_seed(1, "abc"), mix_seed(2, "abc"));
  EXPECT_NE(mix_seed(1, "abc"), mix_seed(1, "abd"));
  EXPECT_EQ(mix_seed(1, std::uint64_t{5}), mix_seed(1, std::uint64_t{5}));
  EXPECT_NE(mix_seed(1, std::uint64_t{5}), mix_seed(1, std::uint64_t{6}));
}

TEST(MakeTestbed, KnowsBothTestbedFamilies) {
  EXPECT_TRUE(known_testbed("VanLAN"));
  EXPECT_TRUE(known_testbed("DieselNet-Ch1"));
  EXPECT_TRUE(known_testbed("DieselNet-Ch6"));
  EXPECT_FALSE(known_testbed("CabLAN"));
  EXPECT_THROW(make_testbed("CabLAN"), ContractViolation);
}

TEST(ResultSink, OrdersByIndexRegardlessOfInsertionOrder) {
  ResultSink sink;
  for (const std::size_t i : {2u, 0u, 1u}) {
    PointResult r;
    r.index = i;
    r.policy = "p";
    r.policy += std::to_string(i);  // += form: avoids GCC 12 -Wrestrict FP
    sink.add(std::move(r));
  }
  const auto ordered = sink.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].index, 0u);
  EXPECT_EQ(ordered[1].index, 1u);
  EXPECT_EQ(ordered[2].index, 2u);
}

TEST(ResultSink, CsvUnionsMetricColumnsSorted) {
  ResultSink sink;
  PointResult a;
  a.index = 0;
  a.metrics["zeta"] = 1.0;
  PointResult b;
  b.index = 1;
  b.metrics["alpha"] = 2.5;
  sink.add(std::move(a));
  sink.add(std::move(b));
  const std::string csv = sink.to_csv();
  EXPECT_NE(csv.find("index,testbed,fleet,policy,seed,alpha,zeta,error"),
            std::string::npos);
}

TEST(Runner, ShardsAllIndicesExactlyOnce) {
  const Runner runner({.threads = 4});
  const ResultSink sink = runner.run_indexed(37, [](std::size_t i) {
    PointResult r;
    r.index = i;
    r.metrics["i"] = static_cast<double>(i);
    return r;
  });
  const auto results = sink.ordered();
  ASSERT_EQ(results.size(), 37u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].metrics.at("i"), static_cast<double>(i));
}

TEST(Runner, RecordsPointFailuresWithoutAbortingTheSweep) {
  const Runner runner({.threads = 2});
  const ResultSink sink = runner.run_indexed(4, [](std::size_t i) {
    if (i == 2) throw std::runtime_error("boom");
    PointResult r;
    r.index = i;
    return r;
  });
  EXPECT_TRUE(sink.any_errors());
  const auto results = sink.ordered();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[2].error, "boom");
  EXPECT_TRUE(results[3].error.empty());
}

TEST(Runner, EmptySweepYieldsEmptySink) {
  const Runner runner({.threads = 4});
  const ResultSink sink =
      runner.run_indexed(0, [](std::size_t) { return PointResult{}; });
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_FALSE(sink.any_errors());
}

// A non-trivial per-index result: a vector whose length and contents both
// depend on the index.
std::vector<std::uint64_t> digest_of(std::size_t i) {
  std::vector<std::uint64_t> out(i % 5 + 1);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = mix_seed(i, k);
  return out;
}

TEST(RunnerMap, ReturnsResultsInIndexOrderOnAnyWorkerCount) {
  std::vector<std::vector<std::uint64_t>> want;
  for (std::size_t i = 0; i < 53; ++i) want.push_back(digest_of(i));
  for (const int threads : {1, 2, 8}) {
    const auto got = Runner({.threads = threads}).map(53, digest_of);
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(RunnerMap, AcceptsMoveOnlyResults) {
  const auto got = Runner({.threads = 4}).map(9, [](std::size_t i) {
    return std::make_unique<std::size_t>(i * i);
  });
  ASSERT_EQ(got.size(), 9u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_EQ(*got[i], i * i);
  }
}

TEST(RunnerMap, EmptyRangeNeverCallsFn) {
  int calls = 0;
  const auto got = Runner({.threads = 4}).map(0, [&](std::size_t) {
    ++calls;
    return 1;
  });
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(calls, 0);
}

TEST(RunnerMap, RethrowsTheLowestFailingIndex) {
  for (const int threads : {1, 4}) {
    try {
      Runner({.threads = threads}).map(20, [](std::size_t i) {
        if (i == 13) throw std::runtime_error("late");
        if (i == 7) throw std::runtime_error("early");
        return i;
      });
      ADD_FAILURE() << "map did not throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 7: early") << threads << " threads";
    }
  }
}

// The core determinism contract: the serialised output of a sweep is a pure
// function of the spec — identical bytes for 1 worker and N workers.
TEST(Runner, ReplaySweepIsThreadCountInvariant) {
  const ExperimentSpec spec = small_replay_spec();
  const ResultSink one = Runner({.threads = 1}).run(spec);
  const ResultSink four = Runner({.threads = 4}).run(spec);
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());
  EXPECT_EQ(one.to_csv(), four.to_csv());
}

TEST(Runner, SameSpecTwiceIsIdentical) {
  const ExperimentSpec spec = small_replay_spec();
  const Runner runner({.threads = 2});
  EXPECT_EQ(runner.run(spec).to_json(), runner.run(spec).to_json());
}

TEST(Runner, BaseSeedChangesResults) {
  ExperimentSpec a = small_replay_spec();
  ExperimentSpec b = small_replay_spec();
  b.base_seed = a.base_seed + 1;
  const Runner runner({.threads = 2});
  EXPECT_NE(runner.run(a).to_json(), runner.run(b).to_json());
}

TEST(Runner, LiveCbrSweepIsThreadCountInvariant) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi", "BRR"};
  spec.grid.seeds = {1};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(20.0);
  spec.workload = "cbr";
  const ResultSink one = Runner({.threads = 1}).run(spec);
  const ResultSink four = Runner({.threads = 4}).run(spec);
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());
}

TEST(Runner, FleetReplaySweepIsThreadCountInvariant) {
  ExperimentSpec spec = small_replay_spec();
  spec.grid.fleet_sizes = {1, 2};
  spec.trip_duration = Time::seconds(20.0);
  const ResultSink one = Runner({.threads = 1}).run(spec);
  const ResultSink four = Runner({.threads = 4}).run(spec);
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());
  EXPECT_EQ(one.to_csv(), four.to_csv());
}

TEST(CampaignPool, OnlyStochasticReplayPointsOfSeveralPoliciesShareOne) {
  ExperimentSpec spec = small_replay_spec();
  const auto points = spec.enumerate();
  ASSERT_NE(points[0].campaigns, nullptr);
  for (const ExperimentPoint& p : points)
    EXPECT_EQ(p.campaigns, points[0].campaigns);
  // One policy x coordination pair: nothing to share.
  ExperimentSpec solo = spec;
  solo.grid.policies = {"BRR"};
  EXPECT_EQ(solo.enumerate()[0].campaigns, nullptr);
  // Live points draw their own trips.
  ExperimentSpec live = spec;
  live.workload = "cbr";
  live.grid.policies = {"ViFi", "BRR"};
  EXPECT_EQ(live.enumerate()[0].campaigns, nullptr);
  // Catalog points replay a catalog; the stochastic pass beside them
  // still shares.
  ExperimentSpec mixed = spec;
  mixed.grid.trace_sets = {"some-catalog", ""};
  for (const ExperimentPoint& p : mixed.enumerate())
    EXPECT_EQ(p.campaigns != nullptr, p.trace_set.empty()) << p.index;
}

/// The same points, each generating its campaign alone, one at a time.
ResultSink run_privately(std::vector<ExperimentPoint> points) {
  ResultSink sink;
  for (ExperimentPoint& p : points) {
    p.campaigns = nullptr;
    try {
      sink.add(run_point(p));
    } catch (const std::exception& e) {
      PointResult r = identity_of(p);
      r.error = e.what();
      sink.add(std::move(r));
    }
  }
  return sink;
}

ExperimentSpec shared_replay_grid() {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.policies = replay_policy_names();
  // Seeds vary fastest, so a worker pool has several campaigns in flight.
  spec.grid.seeds = {1, 2, 3};
  spec.days = 2;
  spec.trips_per_day = 2;
  spec.trip_duration = Time::seconds(20.0);
  spec.base_seed = 4242;
  return spec;
}

TEST(CampaignPool, SharedCampaignsMatchPrivatePointsOnAnyWorkerCount) {
  const ExperimentSpec spec = shared_replay_grid();
  const ResultSink want = run_privately(spec.enumerate());
  ASSERT_EQ(want.size(), 36u);
  EXPECT_FALSE(want.any_errors());
  for (const int threads : {1, 2, 8}) {
    const ResultSink got = Runner({.threads = threads}).run(spec);
    EXPECT_EQ(got.to_json(), want.to_json()) << threads << " threads";
    EXPECT_EQ(got.to_csv(), want.to_csv()) << threads << " threads";
  }
}

TEST(CampaignPool, SharedTripsReplayInCampaignOrder) {
  // Policy metrics are blind to trip order; a point's trace timeline is
  // not: each trip's events land after the previous trip's horizon. The
  // reference replays generate_campaign's trips in campaign order.
  ExperimentSpec spec = shared_replay_grid();
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"BRR", "RSSI", "Sticky"};
  spec.grid.seeds = {1, 2};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vifi_campaign_pool_order";
  std::filesystem::remove_all(dir);
  spec.trace_dir = dir.string();
  ASSERT_FALSE(Runner({.threads = 8}).run(spec).any_errors());
  for (const ExperimentPoint& p : spec.enumerate()) {
    scenario::CampaignConfig cfg;
    cfg.days = p.days;
    cfg.trips_per_day = p.trips_per_day;
    cfg.trip_duration = p.trip_duration;
    cfg.seed = p.campaign_seed;
    const trace::Campaign campaign = scenario::generate_campaign(
        make_testbed(p.testbed, p.fleet_size), cfg);
    obs::TraceRecorder want;
    {
      const obs::TraceScope scope(want);
      Time base = Time::zero();
      for (const trace::MeasurementTrace& trip : campaign.trips) {
        want.set_time_base(base);
        base = base + std::max(trip.duration, Time::seconds(1.0));
        replay_trip(trip, p.policy, campaign);
      }
    }
    std::ostringstream want_jsonl;
    obs::write_jsonl(want, want_jsonl);
    char name[32];
    std::snprintf(name, sizeof(name), "point_%04zu", p.index);
    obs::export_spool((dir / name).string() + ".spool");
    std::ifstream got_file(dir / (std::string(name) + ".jsonl"));
    std::ostringstream got_jsonl;
    got_jsonl << got_file.rdbuf();
    EXPECT_GT(want.recorded(), 0u);
    EXPECT_EQ(got_jsonl.str(), want_jsonl.str()) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignPool, PointFailingAfterTheCampaignIsSharedKeepsItsErrorRow) {
  ExperimentSpec spec = shared_replay_grid();
  spec.grid.policies = {"AllBSes", "Teleport", "History"};
  const ResultSink want = run_privately(spec.enumerate());
  for (const int threads : {1, 4}) {
    const ResultSink got = Runner({.threads = threads}).run(spec);
    for (const PointResult& r : got.ordered()) {
      if (r.policy == "Teleport")  // The point's error, not a trip's.
        EXPECT_EQ(r.error.rfind("unknown replay policy 'Teleport'", 0), 0u)
            << r.index << ": " << r.error;
      else
        EXPECT_TRUE(r.error.empty()) << r.index << ": " << r.error;
    }
    EXPECT_EQ(got.to_json(), want.to_json()) << threads << " threads";
  }
}

TEST(CampaignPool, EmptyCampaignFailsEveryPointWithThePrecondition) {
  // Stochastic cbr points draw days x trips_per_day trips under the same
  // precondition, and fail before any trip runs.
  ExperimentSpec cbr;
  cbr.grid.testbeds = {"VanLAN"};
  cbr.grid.policies = {"ViFi", "BRR"};
  cbr.grid.seeds = {1, 2};
  cbr.workload = "cbr";
  cbr.trip_duration = Time::seconds(5.0);
  for (const ExperimentSpec& grid : {shared_replay_grid(), cbr}) {
    for (const auto& [days, trips] : {std::pair{0, 2}, {1, 0}, {-1, 2}}) {
      ExperimentSpec spec = grid;
      spec.days = days;
      spec.trips_per_day = trips;
      const ResultSink got = Runner({.threads = 4}).run(spec);
      ASSERT_EQ(got.size(), spec.grid.size());
      for (const PointResult& r : got.ordered())
        EXPECT_NE(r.error.find("precondition failed: config.days > 0 && "
                               "config.trips_per_day > 0"),
                  std::string::npos)
            << spec.workload << " " << days << " x " << trips << ", point "
            << r.index << ": " << r.error;
    }
  }
}

TEST(Executor, FleetReplayPointAggregatesEveryVehiclesLog) {
  ExperimentSpec spec = small_replay_spec();
  spec.grid.policies = {"AllBSes"};
  spec.grid.seeds = {1};
  spec.trip_duration = Time::seconds(20.0);
  const PointResult solo = run_point(spec.enumerate()[0]);
  spec.grid.fleet_sizes = {3};
  const PointResult fleet = run_point(spec.enumerate()[0]);
  EXPECT_TRUE(fleet.error.empty());
  EXPECT_EQ(fleet.fleet, 3);
  // Three vehicles log three slot streams per trip.
  EXPECT_EQ(fleet.metrics.at("slots"), 3.0 * solo.metrics.at("slots"));
}

TEST(Executor, ReplayPointProducesTheStandardMetricSet) {
  const auto points = small_replay_spec().enumerate();
  const PointResult r = run_point(points[0]);
  EXPECT_TRUE(r.error.empty());
  for (const char* key :
       {"slots", "packets_sent", "packets_delivered", "delivery_rate",
        "packets_per_day", "session_count", "median_session_s"})
    EXPECT_TRUE(r.metrics.count(key)) << key;
  ASSERT_TRUE(r.series.count("session_len_s_q"));
  ASSERT_TRUE(r.series.count("throughput_kbps_q"));
  EXPECT_EQ(r.series.at("session_len_s_q").size(), cdf_quantiles().size());
  EXPECT_GT(r.metrics.at("delivery_rate"), 0.0);
  EXPECT_LE(r.metrics.at("delivery_rate"), 1.0);
}

/// One row of the executor's golden table: a point shape whose result
/// JSON/CSV and trace artifacts are pinned in tests/data/executor_golden.txt.
struct GoldenRow {
  const char* name;
  bool catalog;       ///< Replay a written catalog instead of drawing trips.
  bool instrumented;  ///< Trace dump + metric columns.
  bool coord;         ///< The coord axis, on VanLAN (else DieselNet-Ch1).
  /// A VanLAN fleet this large on the culled medium instead of a fleet of
  /// 2: collisions, carrier sense and PAB gossip under contention.
  int culled_fleet = 0;
  /// A §3.1 replay point on a VanLAN fleet of 2 instead of a live one: the
  /// BRR point of a BRR/History grid, leasing the grid's shared campaign,
  /// or History over a probe-logging catalog with a streamed trace.
  bool replay = false;
};

/// The file's bytes as a `mix_seed(0, bytes)` digest.
std::string digest_of(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(mix_seed(0, bytes.str())));
  return hex;
}

/// Renders each spool in \p dir into its text exports beside it, as
/// `tripscope export` does, then returns one "name digest" line per file
/// there, in name order.
std::string trace_digests(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  const auto files = [&dir] {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir))
      out.push_back(entry.path());
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const fs::path& f : files())
    if (f.extension() == ".spool") obs::export_spool(f.string());
  std::string out;
  for (const fs::path& f : files())
    out += f.filename().string() + " " + digest_of(f) + "\n";
  return out;
}

/// Runs \p row's point on \p threads workers and renders everything it
/// produced: the result's JSON and CSV (trace_set renamed to the row, so no
/// temp path leaks in) and one digest line per trace artifact.
std::string render_golden_row(const GoldenRow& row, int threads) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_golden";
  const fs::path catalog = dir / row.name;
  const fs::path traces = dir / ("traces" + std::to_string(threads));
  fs::remove_all(dir);
  const bool culled = row.culled_fleet > 0;
  const std::string testbed =
      row.coord || culled || row.replay ? "VanLAN" : "DieselNet-Ch1";
  ExperimentSpec spec;
  spec.grid.testbeds = {testbed};
  spec.grid.fleet_sizes = {culled ? row.culled_fleet : 2};
  spec.cull_medium = culled;
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  if (row.replay) {
    spec.workload = "replay";
    spec.grid.policies = {row.catalog ? "History" : "BRR"};
    if (!row.catalog) spec.grid.policies.push_back("History");
  }
  if (row.catalog) {
    scenario::CampaignConfig cfg;
    cfg.days = 1;
    cfg.trips_per_day = 3;
    cfg.trip_duration = Time::seconds(10.0);
    cfg.seed = row.coord ? 7 : 42;
    cfg.log_probes = row.replay;
    tracegen::write_catalog(
        catalog.string(), "unit",
        scenario::generate_campaign(make_testbed(testbed, 2), cfg));
    spec.grid.trace_sets = {catalog.string()};
  } else {
    spec.trips_per_day = 2;
    spec.trip_duration = Time::seconds(10.0);
    spec.metric_columns = {"mac.transmissions", "coord.transitions"};
  }
  if (row.coord) spec.grid.coordinations = {"coord"};
  if (row.instrumented) {
    if (culled)
      spec.metric_columns = {"mac.transmissions", "mac.collisions",
                             "mac.decode_attempts", "mac.channel_losses"};
    else if (row.replay)
      spec.metric_columns = {"obs.trace.dropped_events"};
    else
      spec.metric_columns = {"mac.transmissions", "core.salvaged"};
    spec.trace_dir = traces.string();
  }
  const ExperimentPoint point = spec.enumerate().front();

  tracegen::drop_catalog_cache();
  PointResult r = threads == 1
                      ? run_point(point)
                      : run_point_sharded(point, Runner({.threads = threads}));
  tracegen::drop_catalog_cache();
  EXPECT_TRUE(r.error.empty()) << r.error;
  if (row.catalog) r.trace_set = row.name;
  ResultSink sink;
  sink.add(std::move(r));
  std::string out = sink.to_json() + sink.to_csv();
  if (row.instrumented) out += trace_digests(traces);
  fs::remove_all(dir);
  return out;
}

// The executor's bytes, pinned. The live rows were recorded from the
// historical sequential trip loop (the culled row from the medium that
// scanned every frame on the air), the replay rows from the sequential
// replay loop; the executor must reproduce them through run_point and on a
// pool of four, for every point shape that takes a different branch
// (catalog vs stochastic trips, a TripScope session, the coord history
// fit, a contended culled fleet, a shared replay campaign, a streamed
// replay trace). Re-pin with VIFI_UPDATE_GOLDEN=1 only for an intended
// output change.
TEST(Executor, PointsMatchTheGoldenBytesOnAnyWorkerCount) {
  const GoldenRow rows[] = {
      {"catalog", true, false, false},
      {"instrumented", true, true, false},
      {"coord", true, false, true},
      {"stochastic", false, false, true},
      {"culled", false, true, false, 24},
      {"replay_pooled", false, true, false, 0, true},
      {"replay_catalog", true, true, false, 0, true},
  };
  const std::string path =
      std::string(VIFI_TEST_DATA_DIR) + "/executor_golden.txt";
  if (std::getenv("VIFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    for (const GoldenRow& row : rows)
      out << "=== " << row.name << "\n" << render_golden_row(row, 1);
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string golden = text.str();
  for (const GoldenRow& row : rows) {
    const std::string header = std::string("=== ") + row.name + "\n";
    const std::size_t begin = golden.find(header);
    ASSERT_NE(begin, std::string::npos) << row.name;
    const std::size_t body = begin + header.size();
    const std::size_t end = golden.find("=== ", body);
    const std::string want = golden.substr(
        body, end == std::string::npos ? std::string::npos : end - body);
    for (const int threads : {1, 4})
      EXPECT_EQ(render_golden_row(row, threads), want)
          << row.name << " on " << threads << " worker(s)";
  }
}

/// Every file a live (cbr) catalog point writes under \p trace_dir, as
/// "name digest" lines, run on \p threads workers: DieselNet-Ch1 with
/// coord, a fleet of four over three trip groups, so many nodes' chunk
/// flushes interleave in the spool and three trips are stitched.
std::string live_trace_digests(int threads) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_live_pin";
  fs::remove_all(dir);
  const scenario::Testbed bed = make_testbed("DieselNet-Ch1", 4);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(12.0);
  cfg.seed = 30;
  cfg.log_probes = false;
  tracegen::write_catalog((dir / "catalog").string(), "unit",
                          scenario::generate_campaign(bed, cfg));
  ExperimentSpec spec;
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {4};
  spec.grid.trace_sets = {(dir / "catalog").string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"coord"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  spec.trace_dir = (dir / "traces").string();
  const ExperimentPoint point = spec.enumerate().front();
  tracegen::drop_catalog_cache();
  const PointResult r =
      threads == 1 ? run_point(point)
                   : run_point_sharded(point, Runner({.threads = threads}));
  tracegen::drop_catalog_cache();
  EXPECT_TRUE(r.error.empty()) << r.error;
  const std::string out = trace_digests(dir / "traces");
  fs::remove_all(dir);
  return out;
}

// The trace bytes of a live DieselNet-Ch1 catalog point with coord,
// pinned beside the golden table's rows. Any change to the spool writer,
// the part-spool absorb or the exporters moves a digest.
TEST(Executor, LiveTraceBytesArePinned) {
  const std::string want =
      "point_0000.jsonl c9bb56529e6ac0f0\n"
      "point_0000.metrics.json 3e9b9731e7115d82\n"
      "point_0000.spool 14119fe7b54f036e\n"
      "point_0000.trace.json 598dcd20603f13cb\n";
  for (const int threads : {1, 4})
    EXPECT_EQ(live_trace_digests(threads), want) << threads;
}

/// A cbr point over a DieselNet-Ch1 catalog written to \p dir/catalog,
/// whose trip 1 throws: one of that trip's traces is missing.
ExperimentPoint catalog_point_failing_trip_1(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  const scenario::Testbed bed = make_testbed("DieselNet-Ch1", 2);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = 42;
  cfg.log_probes = false;
  tracegen::write_catalog((dir / "catalog").string(), "unit",
                          scenario::generate_campaign(bed, cfg));
  EXPECT_TRUE(fs::remove(dir / "catalog" /
                         ("day0_trip1_veh" +
                          std::to_string(bed.vehicle_ids()[0].value()) +
                          ".vifitrace")));
  ExperimentSpec spec;
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {(dir / "catalog").string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  return spec.enumerate().front();
}

// A failing trip must not strand the per-trip part spools a traced point
// writes beside its session spool: the point throws and trace_dir holds no
// `*.part` file afterwards.
TEST(Executor, FailedTripLeavesNoPartSpools) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_part_spools";
  fs::remove_all(dir);
  ExperimentPoint point = catalog_point_failing_trip_1(dir);
  point.trace_dir = (dir / "traces").string();
  try {
    run_point_sharded(point, Runner({.threads = 2}));
    ADD_FAILURE() << "the point did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("trip 1: ", 0), 0u) << e.what();
  }
  for (const auto& entry : fs::directory_iterator(dir / "traces"))
    EXPECT_NE(entry.path().extension(), ".part") << entry.path();
  fs::remove_all(dir);
}

/// A streamed catalog point (coord on) whose trace files land in
/// \p dir/traces, over a three-trip catalog written to \p dir/catalog.
ExperimentPoint streamed_catalog_point(const std::filesystem::path& dir) {
  const scenario::Testbed bed = make_testbed("VanLAN", 2);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = 7;
  cfg.log_probes = false;
  tracegen::write_catalog((dir / "catalog").string(), "unit",
                          scenario::generate_campaign(bed, cfg));
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {(dir / "catalog").string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"coord"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  spec.metric_columns = {"mac.transmissions"};
  spec.trace_dir = (dir / "traces").string();
  return spec.enumerate().front();
}

// A streamed point's two files — the spool and its metrics — and the
// spool's two text exports must not depend on the point's pool: run_point's
// inline worker and sharded pools of 2 and 4 give the same bytes.
TEST(Executor, StreamedExportsAreIdenticalOnAnyWorkerCount) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_stream_exports";
  fs::remove_all(dir);
  const ExperimentPoint point = streamed_catalog_point(dir);
  std::map<std::string, std::string> want;
  for (const int threads : {1, 2, 4}) {
    fs::remove_all(dir / "traces");
    const PointResult r =
        threads == 1 ? run_point(point)
                     : run_point_sharded(point, Runner({.threads = threads}));
    ASSERT_TRUE(r.error.empty()) << r.error;
    obs::export_spool((dir / "traces" / "point_0000.spool").string());
    std::map<std::string, std::string> got;
    for (const auto& entry : fs::directory_iterator(dir / "traces")) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      got[entry.path().filename().string()] = bytes.str();
    }
    std::vector<std::string> names;
    for (const auto& [name, bytes] : got) {
      EXPECT_FALSE(bytes.empty()) << name;
      names.push_back(name);
    }
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "point_0000.jsonl", "point_0000.metrics.json",
                  "point_0000.spool", "point_0000.trace.json"}))
        << threads << " worker(s)";
    if (threads == 1)
      want = std::move(got);
    else
      for (const auto& [name, bytes] : want)  // EXPECT_TRUE: no MB dumps
        EXPECT_TRUE(got[name] == bytes) << name << " on " << threads
                                        << " worker(s)";
  }
  fs::remove_all(dir);
}

// A default-constructed recorder spools into a scratch directory of its
// own, which goes with everything in it when the recorder does: after a
// point that ran and was read back, and after a point whose trip threw
// while the caller's recorder was installed (its part spools lived there).
TEST(Executor, DefaultRecorderLeavesNothingBehind) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_scratch_spool";
  fs::remove_all(dir);
  const ExperimentPoint failing = catalog_point_failing_trip_1(dir / "bad");
  ExperimentPoint good = streamed_catalog_point(dir / "good");
  good.trace_dir.clear();
  for (const ExperimentPoint* point :
       std::initializer_list<const ExperimentPoint*>{&good, &failing}) {
    const bool throws = point == &failing;
    fs::path scratch;
    {
      obs::TraceRecorder recorder;
      const obs::TraceScope scope(recorder);
      scratch = fs::path(recorder.spool_path()).parent_path();
      EXPECT_TRUE(fs::is_directory(scratch));
      try {
        run_point_sharded(*point, Runner({.threads = 2}));
        EXPECT_FALSE(throws) << "the point did not throw";
        EXPECT_EQ(recorder.merged().size(), recorder.recorded());
      } catch (const std::runtime_error& e) {
        EXPECT_TRUE(throws) << e.what();
      }
    }
    EXPECT_FALSE(fs::exists(scratch)) << scratch;
  }
  fs::remove_all(dir);
}

// A metrics file that cannot be written fails the point, and the error
// names the file.
TEST(Executor, UnwritableExportFailsThePointNamingTheFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_export_error";
  fs::remove_all(dir);
  const ExperimentPoint point = streamed_catalog_point(dir);
  const fs::path blocked = dir / "traces" / "point_0000.metrics.json";
  fs::create_directories(blocked);
  for (const int threads : {1, 2}) {
    const ResultSink sink =
        Runner().run({point}, [threads](const ExperimentPoint& p) {
          return run_point_sharded(p, Runner({.threads = threads}));
        });
    ASSERT_EQ(sink.size(), 1u);
    const std::string error = sink.ordered().front().error;
    EXPECT_NE(error.find(blocked.string()), std::string::npos)
        << threads << " worker(s): " << error;
  }
  fs::remove_all(dir);
}

// A catalog cbr point takes its trips from the catalog: the days and
// trips_per_day knobs of a stochastic campaign do not apply to it.
// A point that asks only for metric columns keeps no trace, since nothing
// would write it, while its columns are still filled from the point's
// registry. A column naming a metric nothing registers, such as
// obs.trace.dropped_events, reads 0.
TEST(Executor, MetricOnlyPointKeepsNoTrace) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.fleet_sizes = {16};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(80.0);
  spec.metric_columns = {"obs.trace.dropped_events", "mac.transmissions"};
  const PointResult r = run_point(spec.enumerate().front());
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.metrics.at("obs.obs.trace.dropped_events"), 0.0);
  EXPECT_GT(r.metrics.at("obs.mac.transmissions"), 0.0);
}

TEST(Executor, CatalogCbrPointIgnoresTheCampaignKnobs) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_catalog_knobs";
  fs::remove_all(dir);
  ExperimentPoint point = streamed_catalog_point(dir);
  point.days = 0;
  point.trips_per_day = 0;
  EXPECT_GT(run_point(point).metrics.at("slots"), 0.0);
  fs::remove_all(dir);
}

TEST(Executor, UnknownCoordinationFailsLoudly) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"teleport"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(5.0);
  EXPECT_THROW(run_point(spec.enumerate().front()), std::runtime_error);
}

TEST(Executor, UnknownWorkloadIsAContractViolation) {
  ExperimentSpec spec = small_replay_spec();
  spec.workload = "warp-drive";
  EXPECT_THROW(run_point(spec.enumerate()[0]), ContractViolation);
}

// An unknown policy fails its point with an error naming the policy and the
// workload's names, replay and live alike.
TEST(Executor, UnknownPolicyFailsThePointNamingIt) {
  ExperimentSpec replay = small_replay_spec();
  replay.grid.policies = {"Bogus"};
  ExperimentSpec live = small_replay_spec();
  live.workload = "cbr";
  live.grid.policies = {"Sticky"};  // replay-only policy, invalid live
  const std::vector<std::pair<ExperimentSpec, std::string>> cases{
      {replay,
       "unknown replay policy 'Bogus' "
       "(expected AllBSes/BestBS/History/RSSI/BRR/Sticky)"},
      {live, "unknown live policy 'Sticky' (expected ViFi/BRR/Diversity)"}};
  for (const auto& [spec, want] : cases) {
    try {
      run_point(spec.enumerate()[0]);
      ADD_FAILURE() << spec.workload << " point ran";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), want);
    }
  }
}

TEST(CheckPolicy, KnowsEachWorkloadsOwnNames) {
  for (const std::string& name : replay_policy_names())
    EXPECT_NO_THROW(check_policy("replay", name)) << name;
  for (const std::string& name : live_policy_names())
    EXPECT_NO_THROW(check_policy("cbr", name)) << name;
  EXPECT_THROW(check_policy("replay", "ViFi"), std::runtime_error);
  EXPECT_THROW(check_policy("cbr", "BestBS"), std::runtime_error);
  // An unknown workload is the point's to reject.
  EXPECT_NO_THROW(check_policy("warp-drive", "Bogus"));
}

// Everything a spec names is checked once, before any point runs; each
// case breaks one thing and must be the one the message names.
TEST(CheckSpec, NamesTheFirstThingNoPointCanRun) {
  ExperimentSpec live = small_replay_spec();
  live.workload = "cbr";
  live.grid.policies = {"ViFi", "BRR"};
  live.grid.coordinations = {"pab", "coord"};
  EXPECT_NO_THROW(check_spec(small_replay_spec()));
  EXPECT_NO_THROW(check_spec(live));
  ExperimentSpec ignored = live;
  ignored.trace_stream = true;  // ignored: every traced point streams
  EXPECT_NO_THROW(check_spec(ignored));

  std::vector<std::pair<ExperimentSpec, std::string>> cases;
  ExperimentSpec bad = live;
  bad.grid.testbeds = {"VanLAN", "CabLAN"};
  cases.emplace_back(bad, "unknown testbed: CabLAN");
  bad = live;
  bad.workload = "warp-drive";
  cases.emplace_back(bad,
                     "unknown workload 'warp-drive' (expected replay/cbr)");
  bad = live;
  bad.grid.policies = {"ViFi", "BestBS"};
  cases.emplace_back(
      bad, "unknown live policy 'BestBS' (expected ViFi/BRR/Diversity)");
  bad = small_replay_spec();
  bad.grid.coordinations = {"pab"};
  cases.emplace_back(bad,
                     "the coordination axis applies to cbr (live) points only");
  bad = live;
  bad.grid.coordinations = {"pab", "teleport"};
  cases.emplace_back(bad,
                     "unknown coordination 'teleport' (expected pab/coord)");
  for (const auto& [spec, want] : cases) {
    try {
      check_spec(spec);
      ADD_FAILURE() << "accepted: " << want;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), want);
    }
  }
}

// The three §5 stacks by name: the switches the benches, examples and
// live points all run, and nothing else.
TEST(LivePolicy, EachNameSetsItsDiversityAndSalvageSwitches) {
  EXPECT_EQ(live_policy_names(),
            (std::vector<std::string>{"ViFi", "BRR", "Diversity"}));
  struct Switches {
    std::string name;
    bool diversity, salvage;
  };
  const core::SystemConfig defaults;
  for (const Switches& want : {Switches{"ViFi", true, true},
                               Switches{"BRR", false, false},
                               Switches{"Diversity", true, false}}) {
    const core::SystemConfig sys = live_policy_config(want.name);
    EXPECT_EQ(sys.vifi.diversity, want.diversity) << want.name;
    EXPECT_EQ(sys.vifi.salvage, want.salvage) << want.name;
    EXPECT_EQ(sys.vifi.max_retx, defaults.vifi.max_retx) << want.name;
    EXPECT_EQ(sys.vifi.max_auxiliaries, defaults.vifi.max_auxiliaries)
        << want.name;
  }
  for (const std::string name : {"", "vifi", "AllBSes", "Sticky", "Bogus"})
    EXPECT_THROW(live_policy_config(name), std::runtime_error) << name;
}

}  // namespace
}  // namespace vifi::runtime
