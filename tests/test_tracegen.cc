// TraceForge (src/tracegen/): contact extraction, model fitting, per-seed
// deterministic synthesis, model IO, the TraceCatalog, and the runtime's
// trace_sets replay axis.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/model_io.h"
#include "tracegen/synth.h"
#include "trace/trace_io.h"

namespace vifi::tracegen {
namespace {

using sim::NodeId;

/// A trace with two clean contacts at BS0 (seconds 0-2 and 10-12, the
/// second one lossier) and nothing at BS1.
trace::MeasurementTrace two_contact_trace() {
  trace::MeasurementTrace t;
  t.testbed = "TestBed";
  t.vehicle = NodeId(2);
  t.duration = Time::seconds(20.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  auto add = [&t](int sec, int beacons) {
    for (int b = 0; b < beacons; ++b)
      t.vehicle_beacons.push_back(
          {Time::micros(sec * 1'000'000 + b * 100'000 + 37'000), NodeId(0),
           -65.0});
  };
  for (int s = 0; s <= 2; ++s) add(s, 10);   // lossless contact
  for (int s = 10; s <= 12; ++s) add(s, 5);  // 50% loss contact
  return t;
}

TEST(ExtractContacts, FindsContactsAndLossLevels) {
  const auto contacts = extract_contacts(two_contact_trace(), {});
  ASSERT_EQ(contacts.size(), 2u);
  EXPECT_EQ(contacts[0].bs, NodeId(0));
  EXPECT_EQ(contacts[0].start_sec, 0);
  EXPECT_EQ(contacts[0].duration_s, 3);
  EXPECT_DOUBLE_EQ(contacts[0].mean_loss, 0.0);
  EXPECT_EQ(contacts[1].start_sec, 10);
  EXPECT_EQ(contacts[1].duration_s, 3);
  EXPECT_DOUBLE_EQ(contacts[1].mean_loss, 0.5);
}

TEST(ExtractContacts, GapToleranceBridgesShortFades) {
  trace::MeasurementTrace t = two_contact_trace();
  FitOptions wide;
  wide.gap_tolerance_s = 10;  // bridges the 7-second silence
  const auto merged = extract_contacts(t, wide);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].duration_s, 13);

  FitOptions none;
  none.gap_tolerance_s = 0;
  EXPECT_EQ(extract_contacts(t, none).size(), 2u);
}

TEST(FitModel, PoolsContactsAcrossTraces) {
  const trace::MeasurementTrace t = two_contact_trace();
  const TraceModel model = fit_model({&t, &t}, {});
  EXPECT_EQ(model.testbed, "TestBed");
  EXPECT_EQ(model.source_trips, 2);
  ASSERT_EQ(model.links.size(), 2u);
  const LinkModel* bs0 = model.link(NodeId(0));
  ASSERT_NE(bs0, nullptr);
  // 4 contacts over 2 x 20 s of observation.
  EXPECT_DOUBLE_EQ(bs0->contact_rate_hz, 4.0 / 40.0);
  EXPECT_EQ(bs0->duration_s.size(), 4u);
  // BS1 was never heard: present with rate 0.
  const LinkModel* bs1 = model.link(NodeId(1));
  ASSERT_NE(bs1, nullptr);
  EXPECT_DOUBLE_EQ(bs1->contact_rate_hz, 0.0);
}

TEST(FitModel, RejectsEmptyAndForeignInputs) {
  EXPECT_THROW(fit_model(std::vector<const trace::MeasurementTrace*>{}, {}),
               std::runtime_error);
  trace::MeasurementTrace a = two_contact_trace();
  trace::MeasurementTrace b = two_contact_trace();
  b.testbed = "OtherBed";
  try {
    fit_model({&a, &b}, {});
    FAIL() << "foreign testbed mix must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different testbeds"),
              std::string::npos);
  }
}

TEST(Burstiness, ClusteredLossesBeatMemoryless) {
  // Contact over seconds 0..9; beacons lost in one solid block (seconds
  // 4-5 silent would split nothing: keep >=1 beacon per second, drop
  // within-second slots in a run).
  trace::MeasurementTrace t;
  t.testbed = "TestBed";
  t.duration = Time::seconds(10.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0)};
  for (int s = 0; s < 10; ++s) {
    // Seconds 4 and 5: only the first beacon of the second survives (a
    // burst of 9+9 consecutive slot losses); otherwise lossless.
    const int n = (s == 4 || s == 5) ? 1 : 10;
    for (int b = 0; b < n; ++b)
      t.vehicle_beacons.push_back(
          {Time::micros(s * 1'000'000 + b * 100'000 + 37'000), NodeId(0),
           -60.0});
  }
  const BurstinessStats stats = measure_burstiness({&t}, {});
  EXPECT_GT(stats.slots, 0);
  EXPECT_NEAR(stats.unconditional_loss, 18.0 / 100.0, 1e-9);
  EXPECT_GT(stats.ratio(), 2.0);  // losses cluster
}

TEST(KsDistance, BasicProperties) {
  EXPECT_DOUBLE_EQ(ks_distance({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance({1, 1, 1}, {9, 9, 9}), 1.0);
  EXPECT_DOUBLE_EQ(ks_distance({}, {}), 0.0);
  const double d = ks_distance({1, 2, 3, 4}, {1, 2, 3, 9});
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 0.25 + 1e-12);
}

TEST(Synthesize, DeterministicPerSeedAndSeedSensitive) {
  const trace::MeasurementTrace t = two_contact_trace();
  const TraceModel model = fit_model({&t}, {});
  SynthesisSpec spec;
  spec.vehicles = 3;
  spec.trips_per_day = 2;
  spec.seed = 9;
  const trace::Campaign a = synthesize_fleet(model, spec);
  const trace::Campaign b = synthesize_fleet(model, spec);
  ASSERT_EQ(a.trips.size(), 6u);
  for (std::size_t i = 0; i < a.trips.size(); ++i) {
    std::ostringstream sa, sb;
    trace::save_trace(a.trips[i], sa);
    trace::save_trace(b.trips[i], sb);
    EXPECT_EQ(sa.str(), sb.str()) << "trip " << i;
  }
  spec.seed = 10;
  const trace::Campaign c = synthesize_fleet(model, spec);
  std::ostringstream sa, sc;
  trace::save_trace(a.trips[0], sa);
  trace::save_trace(c.trips[0], sc);
  EXPECT_NE(sa.str(), sc.str());
}

TEST(Synthesize, VehicleIdsFollowTestbedConvention) {
  const trace::MeasurementTrace t = two_contact_trace();  // BSes 0 and 1
  const TraceModel model = fit_model({&t}, {});
  SynthesisSpec spec;
  spec.vehicles = 2;
  const trace::Campaign c = synthesize_fleet(model, spec);
  ASSERT_EQ(c.trips.size(), 2u);
  EXPECT_EQ(c.trips[0].vehicle, NodeId(2));
  EXPECT_EQ(c.trips[1].vehicle, NodeId(3));
  EXPECT_EQ(c.trips[0].bs_ids, t.bs_ids);
  EXPECT_EQ(c.trips[0].testbed, "TestBed");
}

TEST(Synthesize, StatisticallyMatchesTheSource) {
  // Record a real campaign, fit, synthesize an equally-sized set, and
  // compare the §5-relevant statistics. Tolerances are loose — this is a
  // sanity floor; `paper validation_synth` gates the tight numbers.
  const scenario::Testbed bed = scenario::make_dieselnet(1);
  scenario::CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = 3;
  cc.trip_duration = Time::seconds(90.0);
  cc.seed = 777;
  cc.log_probes = false;
  const trace::Campaign source = scenario::generate_campaign(bed, cc);

  const TraceModel model = fit_model(source, {});
  SynthesisSpec spec;
  spec.vehicles = 1;
  spec.trips_per_day = 3;
  spec.trip_duration = Time::seconds(90.0);
  spec.seed = 4321;
  const trace::Campaign synth = synthesize_fleet(model, spec);

  std::vector<const trace::MeasurementTrace*> src, syn;
  for (const auto& t : source.trips) src.push_back(&t);
  for (const auto& t : synth.trips) syn.push_back(&t);

  const auto d_src = pooled_contact_durations(src, {});
  const auto d_syn = pooled_contact_durations(syn, {});
  ASSERT_FALSE(d_src.empty());
  ASSERT_FALSE(d_syn.empty());
  EXPECT_LT(ks_distance(d_src, d_syn), 0.5);

  const double loss_src = pooled_contact_loss(src, {});
  const double loss_syn = pooled_contact_loss(syn, {});
  EXPECT_NEAR(loss_syn, loss_src, 0.25);
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("vifi_catalog_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    drop_catalog_cache();
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    drop_catalog_cache();
  }

  trace::Campaign fleet_campaign(int vehicles = 2, int trips = 2) {
    const trace::MeasurementTrace base = two_contact_trace();
    const TraceModel model = fit_model({&base}, {});
    SynthesisSpec spec;
    spec.vehicles = vehicles;
    spec.trips_per_day = trips;
    spec.seed = 5;
    return synthesize_fleet(model, spec);
  }

  std::filesystem::path dir_;
};

TEST_F(CatalogTest, WriteLoadRoundTrip) {
  const trace::Campaign campaign = fleet_campaign(2, 3);
  write_catalog(dir_.string(), "unit", campaign);
  const TraceCatalog cat = TraceCatalog::load(dir_.string());
  EXPECT_EQ(cat.name(), "unit");
  EXPECT_EQ(cat.testbed(), "TestBed");
  EXPECT_EQ(cat.fleet_size(), 2);
  EXPECT_EQ(cat.days(), 1);
  ASSERT_EQ(cat.trip_groups(), 3u);
  ASSERT_EQ(cat.traces().size(), 6u);
  const auto fleet = cat.fleet_trip(1);
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0]->vehicle, NodeId(2));
  EXPECT_EQ(fleet[1]->vehicle, NodeId(3));
  EXPECT_EQ(fleet[0]->trip, 1);
}

TEST_F(CatalogTest, SharedLoaderReturnsOneInstance) {
  write_catalog(dir_.string(), "unit", fleet_campaign());
  const auto a = load_catalog_shared(dir_.string());
  const auto b = load_catalog_shared(dir_.string());
  EXPECT_EQ(a.get(), b.get());
  drop_catalog_cache();
  const auto c = load_catalog_shared(dir_.string());
  EXPECT_NE(a.get(), c.get());
}

TEST_F(CatalogTest, MissingManifestIsACrispError) {
  std::filesystem::create_directories(dir_);
  try {
    TraceCatalog::load(dir_.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos);
  }
}

TEST_F(CatalogTest, ForeignManifestVersionIsRejected) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "manifest.txt") << "# vifi-catalog v9\n";
  try {
    TraceCatalog::load(dir_.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported manifest version"),
              std::string::npos);
  }
}

TEST_F(CatalogTest, ManifestTraceMismatchIsRejected) {
  const trace::Campaign campaign = fleet_campaign(2, 1);
  write_catalog(dir_.string(), "unit", campaign);
  // Swap one trace file for a different vehicle's log: header contradicts
  // the manifest line.
  trace::MeasurementTrace rogue = campaign.trips[1];  // vehicle 3
  trace::save_trace_file(rogue, (dir_ / "day0_trip0_veh2.vifitrace").string());
  try {
    TraceCatalog::load(dir_.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("logged by"), std::string::npos);
  }
}

TEST_F(CatalogTest, RefusesLegacyTracesWithoutVehicles) {
  trace::Campaign campaign = fleet_campaign(1, 1);
  campaign.trips[0].vehicle = NodeId();
  try {
    write_catalog(dir_.string(), "unit", campaign);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("logging vehicle"),
              std::string::npos);
  }
}

TEST_F(CatalogTest, RefusesRaggedFleets) {
  trace::Campaign campaign = fleet_campaign(2, 2);
  campaign.trips.pop_back();  // second trip loses vehicle 3
  EXPECT_THROW(write_catalog(dir_.string(), "unit", campaign),
               std::runtime_error);
}

TEST_F(CatalogTest, RefusesRaggedDurationsWithinATrip) {
  // One trip group's loss schedule has one horizon; a vehicle logging a
  // different duration would be truncated or measured into dead air.
  trace::Campaign campaign = fleet_campaign(2, 1);
  campaign.trips[1].duration = campaign.trips[0].duration + Time::seconds(5);
  write_catalog(dir_.string(), "unit", campaign);
  try {
    TraceCatalog::load(dir_.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ragged"), std::string::npos);
  }
}

TEST_F(CatalogTest, ManifestLineOrderDoesNotChangeTheCatalog) {
  // Two manifests naming the same files in different line orders are the
  // same catalog: traces() comes back in canonical (day, trip, vehicle)
  // order either way, so replays stay byte-identical.
  write_catalog(dir_.string(), "unit", fleet_campaign(2, 2));
  const auto manifest_path = dir_ / "manifest.txt";
  std::ifstream in(manifest_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), 4u);
  std::reverse(lines.begin() + 2, lines.end());  // keep magic + header
  std::ofstream out(manifest_path);
  for (const std::string& line : lines) out << line << "\n";
  out.close();
  const TraceCatalog cat = TraceCatalog::load(dir_.string());
  for (std::size_t i = 1; i < cat.traces().size(); ++i) {
    const auto& prev = cat.traces()[i - 1];
    const auto& cur = cat.traces()[i];
    EXPECT_LT(std::tuple(prev.day, prev.trip, prev.vehicle),
              std::tuple(cur.day, cur.trip, cur.vehicle));
  }
}

/// Serialises a trace through the catalog's own writer: two traces with
/// identical bytes here are identical for any replay.
std::string trace_bytes(const trace::MeasurementTrace& t,
                        const std::filesystem::path& scratch) {
  trace::save_trace_file(t, scratch.string());
  std::ifstream in(scratch, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(CatalogTest, StreamMatchesEagerLoadByteForByte) {
  write_catalog(dir_.string(), "unit", fleet_campaign(2, 3));
  const TraceCatalog eager = TraceCatalog::load(dir_.string());
  const CatalogStream stream = CatalogStream::open(dir_.string());
  EXPECT_EQ(stream.name(), eager.name());
  EXPECT_EQ(stream.testbed(), eager.testbed());
  EXPECT_EQ(stream.fleet_size(), eager.fleet_size());
  EXPECT_EQ(stream.vehicle_ids(), eager.vehicle_ids());
  EXPECT_EQ(stream.days(), eager.days());
  ASSERT_EQ(stream.trip_groups(), eager.trip_groups());
  const auto scratch = dir_ / "cmp.vifitrace";
  for (std::size_t g = 0; g < stream.trip_groups(); ++g) {
    const std::vector<trace::MeasurementTrace> lazy = stream.load_group(g);
    const auto fleet = eager.fleet_trip(g);
    ASSERT_EQ(lazy.size(), fleet.size());
    EXPECT_EQ(stream.group_key(g),
              std::make_pair(fleet.front()->day, fleet.front()->trip));
    for (std::size_t v = 0; v < lazy.size(); ++v)
      EXPECT_EQ(trace_bytes(lazy[v], scratch), trace_bytes(*fleet[v], scratch))
          << "group " << g << " vehicle slot " << v;
  }
}

TEST_F(CatalogTest, StreamDefersRaggedDurationsToLoadGroup) {
  // Ragged durations live in the trace files, not the manifest, so the
  // stream opens fine and only the defective group fails — with the eager
  // loader's message.
  trace::Campaign campaign = fleet_campaign(2, 2);
  campaign.trips[1].duration = campaign.trips[0].duration + Time::seconds(5);
  write_catalog(dir_.string(), "unit", campaign);
  const CatalogStream stream = CatalogStream::open(dir_.string());
  ASSERT_EQ(stream.trip_groups(), 2u);
  EXPECT_NO_THROW(stream.load_group(1));  // the clean group still loads
  try {
    stream.load_group(0);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ragged"), std::string::npos);
  }
}

TEST_F(CatalogTest, StreamDefersMissingTraceFileToLoadGroup) {
  write_catalog(dir_.string(), "unit", fleet_campaign(2, 2));
  std::filesystem::remove(dir_ / "day0_trip1_veh2.vifitrace");
  // Eager load refuses the whole catalog up front; the stream opens from
  // the manifest alone and fails only the group that needs the file.
  EXPECT_THROW(TraceCatalog::load(dir_.string()), std::runtime_error);
  const CatalogStream stream = CatalogStream::open(dir_.string());
  EXPECT_NO_THROW(stream.load_group(0));
  EXPECT_THROW(stream.load_group(1), std::runtime_error);
}

TEST_F(CatalogTest, StreamDefersHeaderContradictionsToLoadGroup) {
  const trace::Campaign campaign = fleet_campaign(2, 1);
  write_catalog(dir_.string(), "unit", campaign);
  trace::MeasurementTrace rogue = campaign.trips[1];  // vehicle 3
  trace::save_trace_file(rogue, (dir_ / "day0_trip0_veh2.vifitrace").string());
  const CatalogStream stream = CatalogStream::open(dir_.string());
  try {
    stream.load_group(0);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("logged by"), std::string::npos);
  }
}

TEST_F(CatalogTest, StreamRejectsManifestDefectsAtOpen) {
  // Truncated manifest (magic only, no header): rejected without reading
  // any trace file, same as the eager loader.
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "manifest.txt") << "# vifi-catalog v1\n";
  try {
    CatalogStream::open(dir_.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no catalog header"),
              std::string::npos);
  }

  // Mismatched trip vehicle sets are manifest-derivable: rejected at open.
  write_catalog(dir_.string(), "unit", fleet_campaign(2, 2));
  const auto manifest_path = dir_ / "manifest.txt";
  std::ifstream in(manifest_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), 4u);
  lines.pop_back();  // the last trip loses a vehicle
  std::ofstream out(manifest_path);
  for (const std::string& line : lines) out << line << "\n";
  out.close();
  try {
    CatalogStream::open(dir_.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different vehicle set"),
              std::string::npos);
  }
}

TEST_F(CatalogTest, StreamGroupIndexOutOfRangeIsACrispError) {
  write_catalog(dir_.string(), "unit", fleet_campaign(2, 1));
  const CatalogStream stream = CatalogStream::open(dir_.string());
  ASSERT_EQ(stream.trip_groups(), 1u);
  EXPECT_THROW(stream.load_group(1), std::runtime_error);
  EXPECT_THROW(stream.group_key(1), std::runtime_error);
}

TEST(ModelIo, RoundTripsByteIdentically) {
  const trace::MeasurementTrace t = two_contact_trace();
  const TraceModel model = fit_model({&t}, {});
  std::ostringstream first;
  save_model(model, first);
  std::istringstream in(first.str());
  const TraceModel reloaded = load_model(in);
  std::ostringstream second;
  save_model(reloaded, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(reloaded.testbed, model.testbed);
  EXPECT_EQ(reloaded.links.size(), model.links.size());
  EXPECT_EQ(reloaded.link(NodeId(0))->mean_on, model.link(NodeId(0))->mean_on);
}

TEST(ModelIo, RejectsForeignVersionAndTruncation) {
  std::istringstream foreign("# vifi-tracemodel v2\n");
  try {
    load_model(foreign);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos);
  }

  const trace::MeasurementTrace t = two_contact_trace();
  std::ostringstream full;
  save_model(fit_model({&t}, {}), full);
  const std::string text = full.str();
  // Drop the last line: the link count stops matching the header.
  const auto cut = text.rfind("losses");
  std::istringstream truncated(text.substr(0, cut));
  try {
    load_model(truncated);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }

  // Hostile sample counts: -1 wraps to SIZE_MAX and 4e9 would pre-size a
  // 32 GB vector. Both must read as a truncated list on their own line.
  for (const std::string count : {"-1", "4000000000"}) {
    std::istringstream hostile(
        "# vifi-tracemodel v1\n"
        "model Bed duration_us 1000000 bps 10 gap_s 2 trips 1 links 1\n"
        "link 3 rate 0.1 on_us 1000000 off_us 0 rssi_mean -70 rssi_sd 4\n"
        "durations 3 " + count + " 1.0\n");
    try {
      load_model(hostile);
      FAIL() << "must throw for count " << count;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 4: truncated sample list"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, RejectsMismatchedParallelSampleLists) {
  // durations and losses are parallel per-contact arrays; a length
  // mismatch would index out of bounds at synthesis time.
  std::istringstream in(
      "# vifi-tracemodel v1\n"
      "model Bed duration_us 1000000 bps 10 gap_s 2 trips 1 links 1\n"
      "link 0 rate 0.1 on_us 1000000 off_us 0 rssi_mean -70 rssi_sd 4\n"
      "durations 0 3 5 5 5\n"
      "losses 0 1 0.5\n");
  try {
    load_model(in);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parallel lists must match"),
              std::string::npos);
  }
}

class ReplayAxisTest : public CatalogTest {};

TEST_F(ReplayAxisTest, GridEnumeratesTraceSetsLikeAnyAxis) {
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {"a", "b"};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1, 2};
  EXPECT_EQ(spec.grid.size(), 4u);
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].trace_set, "a");
  EXPECT_EQ(points[2].trace_set, "b");
  // Different trace sets decorrelate their seeds; the axis is real.
  EXPECT_NE(points[0].point_seed, points[2].point_seed);

  // No trace_sets axis: enumeration is bit-identical to the historical
  // derivation (trace_set empty, seeds untouched).
  runtime::ExperimentSpec plain = spec;
  plain.grid.trace_sets = {};
  const auto base = plain.enumerate();
  ASSERT_EQ(base.size(), 2u);
  EXPECT_TRUE(base[0].trace_set.empty());
}

TEST_F(ReplayAxisTest, SeedsIgnoreHowTheCatalogPathIsSpelled) {
  // The same catalog reached via ./cat, /abs/cat or cat/ must replay
  // identically — only the directory's name feeds the seed derivation.
  auto seed_for = [](const std::string& trace_set) {
    runtime::ExperimentSpec spec;
    spec.grid.trace_sets = {trace_set};
    return spec.enumerate().front().campaign_seed;
  };
  EXPECT_EQ(seed_for("cat"), seed_for("./cat"));
  EXPECT_EQ(seed_for("cat"), seed_for("/tmp/somewhere/cat"));
  EXPECT_EQ(seed_for("cat"), seed_for("cat/"));
  EXPECT_NE(seed_for("cat"), seed_for("other"));
}

TEST_F(ReplayAxisTest, ExecutorReplaysCatalogDeterministically) {
  // Record a 2-bus campaign on the real testbed, write it as a catalog,
  // and sweep the replay axis at 1 and 3 threads: byte-identical output.
  const scenario::Testbed bed = scenario::make_dieselnet(1, 2);
  scenario::CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = 2;
  cc.trip_duration = Time::seconds(30.0);
  cc.seed = 99;
  cc.log_probes = false;
  write_catalog(dir_.string(), "replaytest",
                scenario::generate_campaign(bed, cc));

  runtime::ExperimentSpec spec;
  spec.name = "replay_axis";
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {dir_.string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";

  const runtime::ResultSink one = runtime::Runner({.threads = 1}).run(spec);
  const runtime::ResultSink three = runtime::Runner({.threads = 3}).run(spec);
  ASSERT_FALSE(one.any_errors()) << one.ordered().front().error;
  EXPECT_EQ(one.to_json(), three.to_json());
  EXPECT_EQ(one.to_csv(), three.to_csv());
  // The replay column is present and the point actually moved packets.
  EXPECT_NE(one.to_csv().find("trace_set"), std::string::npos);
  EXPECT_GT(one.ordered().front().metrics.at("packets_delivered"), 0.0);
}

TEST_F(ReplayAxisTest, MismatchedCatalogIsAPointError) {
  const scenario::Testbed bed = scenario::make_dieselnet(1, 2);
  scenario::CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = 1;
  cc.trip_duration = Time::seconds(10.0);
  cc.seed = 3;
  cc.log_probes = false;
  write_catalog(dir_.string(), "mismatch",
                scenario::generate_campaign(bed, cc));

  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};  // catalog is DieselNet-Ch1
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {dir_.string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  const runtime::ResultSink sink = runtime::Runner({.threads = 1}).run(spec);
  ASSERT_TRUE(sink.any_errors());
  const runtime::PointResult failed = sink.ordered().front();
  EXPECT_NE(failed.error.find("was recorded on testbed"), std::string::npos);
  // The error row keeps its identity columns — a bare index is useless
  // for telling which grid point failed.
  EXPECT_EQ(failed.testbed, "VanLAN");
  EXPECT_EQ(failed.fleet, 2);
  EXPECT_EQ(failed.trace_set, dir_.string());
  EXPECT_EQ(failed.policy, "ViFi");
}

TEST_F(ReplayAxisTest, BeaconOnlyCatalogRejectsTheReplayWorkload) {
  // §3.1 policy replay consumes probe slots; a beacon-only catalog must
  // fail loudly instead of reporting all-zero metrics.
  const scenario::Testbed bed = scenario::make_dieselnet(1, 2);
  scenario::CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = 1;
  cc.trip_duration = Time::seconds(10.0);
  cc.seed = 21;
  cc.log_probes = false;
  write_catalog(dir_.string(), "beacononly",
                scenario::generate_campaign(bed, cc));

  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {dir_.string()};
  spec.grid.policies = {"BestBS"};
  spec.grid.seeds = {1};
  spec.workload = "replay";
  const runtime::ResultSink sink = runtime::Runner({.threads = 1}).run(spec);
  ASSERT_TRUE(sink.any_errors());
  EXPECT_NE(sink.ordered().front().error.find("no probe slots"),
            std::string::npos);
}

TEST_F(ReplayAxisTest, LiveTripBuildsStraightFromACatalog) {
  const scenario::Testbed bed = scenario::make_dieselnet(1, 2);
  scenario::CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = 1;
  cc.trip_duration = Time::seconds(15.0);
  cc.seed = 12;
  cc.log_probes = false;
  write_catalog(dir_.string(), "livetrip",
                scenario::generate_campaign(bed, cc));
  const auto catalog = load_catalog_shared(dir_.string());
  scenario::LiveTrip trip(bed, catalog->fleet_trip(0), core::SystemConfig{},
                          44);
  trip.run_until(Time::seconds(5.0));
  EXPECT_EQ(trip.transports().size(), 2u);
  EXPECT_THROW(catalog->fleet_trip(7), std::runtime_error);
}

}  // namespace
}  // namespace vifi::tracegen
