// Property tests for TraceForge's two text formats under hostile bytes. A
// byte-mutated model file (save_model) either fails with the tagged
// `tracemodel parse error at line N` or loads into a model that re-saves
// and reloads equal. A byte-mutated catalog manifest (write_catalog)
// either fails `CatalogStream::open` with a `catalog error (DIR)` or
// opens, and then each trip group either loads in the shape the stream
// promises or fails with that same prefix. Never a crash, a hang, a huge
// allocation or an untagged exception.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/campaign.h"
#include "scenario/testbed.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/model_io.h"
#include "tracegen/synth.h"
#include "util/rng.h"

namespace vifi::tracegen {
namespace {

/// A whitespace-delimited token: its [begin, end) bytes and its field
/// index on its line.
struct Token {
  std::size_t begin = 0;
  std::size_t end = 0;
  int field = 0;
};

std::vector<Token> tokens(const std::string& s) {
  std::vector<Token> out;
  int field = 0;
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] == '\n') field = 0;
    if (std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    out.push_back({begin, i, field++});
  }
  return out;
}

/// One to three edits: flip a bit, insert a byte, delete one, or copy a
/// field over the same field of another line (a manifest line then names
/// another line's file, a link another link's id). Inserted bytes lean on
/// the format's own characters so that mutants often still parse, plus
/// any byte at all.
std::string mutate(Rng& rng, std::string text, const std::string& grammar) {
  for (auto edits = rng.uniform_int(1, 3); edits > 0; --edits) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    const char byte =
        rng.bernoulli(0.8)
            ? grammar[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(grammar.size()) - 1))]
            : static_cast<char>(rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 1:
        text.insert(at, 1, byte);
        break;
      case 2:
        text.erase(at, 1);
        break;
      default: {
        const std::vector<Token> all = tokens(text);
        const auto pick = [&rng](const std::vector<Token>& from) {
          return from[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(from.size()) - 1))];
        };
        if (all.empty()) break;
        const Token to = pick(all);
        std::vector<Token> same_field;
        for (const Token& t : all)
          if (t.field == to.field) same_field.push_back(t);
        const Token from = pick(same_field);
        text.replace(to.begin, to.end - to.begin,
                     text.substr(from.begin, from.end - from.begin));
      }
    }
  }
  return text;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A short generated campaign: beacon logs only, so trace files stay small.
trace::Campaign campaign(const scenario::Testbed& bed, std::uint64_t seed) {
  scenario::CampaignConfig config;
  config.days = 2;
  config.trips_per_day = 2;
  config.trip_duration = Time::seconds(40.0);
  config.seed = seed;
  config.log_probes = false;
  return scenario::generate_campaign(bed, config);
}

std::string model_text(const trace::Campaign& source) {
  std::ostringstream os;
  save_model(fit_model(source), os);
  return os.str();
}

/// Every field save_model writes.
bool same_model(const TraceModel& a, const TraceModel& b) {
  if (a.testbed != b.testbed || a.trip_duration != b.trip_duration ||
      a.beacons_per_second != b.beacons_per_second ||
      a.source_trips != b.source_trips ||
      a.fit.gap_tolerance_s != b.fit.gap_tolerance_s ||
      a.links.size() != b.links.size())
    return false;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const LinkModel& x = a.links[i];
    const LinkModel& y = b.links[i];
    if (x.bs != y.bs || x.contact_rate_hz != y.contact_rate_hz ||
        x.duration_s != y.duration_s || x.loss_level != y.loss_level ||
        x.mean_on != y.mean_on || x.mean_off != y.mean_off ||
        x.rssi_mean_dbm != y.rssi_mean_dbm ||
        x.rssi_stddev_dbm != y.rssi_stddev_dbm)
      return false;
  }
  return true;
}

TEST(ModelIoProps, ByteMutantsFailCrisplyOrLoadConsistently) {
  const std::vector<std::string> corpus = {
      model_text(campaign(scenario::make_vanlan(2), 3)),
      model_text(campaign(scenario::make_dieselnet(1, 2), 4))};
  const std::string grammar = "0123456789 \n\t-+.e#linkratedurationslosses";
  Rng rng(7321);
  int loaded_mutants = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const std::string text = mutate(
        rng, corpus[static_cast<std::size_t>(iter) % corpus.size()], grammar);
    TraceModel mutant;
    try {
      std::istringstream in(text);
      mutant = load_model(in);
    } catch (const std::runtime_error& e) {
      ASSERT_TRUE(starts_with(e.what(), "tracemodel parse error at line "))
          << "iteration " << iter << ": untagged error: " << e.what();
      continue;
    }
    ++loaded_mutants;
    std::ostringstream y;
    save_model(mutant, y);
    std::istringstream in(y.str());
    const TraceModel again = load_model(in);
    ASSERT_TRUE(same_model(again, mutant)) << "iteration " << iter;
    std::ostringstream z;
    save_model(again, z);
    ASSERT_EQ(z.str(), y.str()) << "iteration " << iter;
  }
  // Both outcomes must be exercised for the property to say anything.
  EXPECT_GT(loaded_mutants, 60);
  EXPECT_LT(loaded_mutants, 540);
}

TEST(CatalogProps, ManifestByteMutantsFailCrisplyOrLoadConsistently) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("vifi_catalog_props_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(dir);
  write_catalog(dir.string(), "props", campaign(scenario::make_vanlan(2), 5));
  const std::filesystem::path manifest = dir / "manifest.txt";
  std::string original;
  {
    std::ifstream in(manifest);
    std::ostringstream os;
    os << in.rdbuf();
    original = os.str();
  }
  const std::string prefix = "catalog error (" + dir.string() + "): ";
  const std::string grammar = "0123456789 \n\t-#_.tracedaytripvehfleet";
  Rng rng(9041);
  int opened = 0;
  int groups_loaded = 0;
  for (int iter = 0; iter < 300; ++iter) {
    {
      std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
      out << mutate(rng, original, grammar);
    }
    CatalogStream stream;
    try {
      stream = CatalogStream::open(dir.string());
    } catch (const std::runtime_error& e) {
      ASSERT_TRUE(starts_with(e.what(), prefix))
          << "iteration " << iter << ": untagged error: " << e.what();
      continue;
    }
    ++opened;
    ASSERT_GT(stream.trip_groups(), 0u) << "iteration " << iter;
    for (std::size_t g = 0; g < stream.trip_groups(); ++g) {
      std::vector<trace::MeasurementTrace> group;
      try {
        group = stream.load_group(g);
      } catch (const std::runtime_error& e) {
        ASSERT_TRUE(starts_with(e.what(), prefix))
            << "iteration " << iter << " group " << g
            << ": untagged error: " << e.what();
        continue;
      }
      ++groups_loaded;
      // The shape the stream promises: the fleet, in vehicle-id order,
      // every trace from the group's (day, trip) and one horizon.
      ASSERT_EQ(group.size(), stream.vehicle_ids().size())
          << "iteration " << iter;
      ASSERT_EQ(static_cast<int>(group.size()), stream.fleet_size());
      for (std::size_t v = 0; v < group.size(); ++v) {
        ASSERT_EQ(group[v].vehicle, stream.vehicle_ids()[v])
            << "iteration " << iter;
        ASSERT_EQ(std::pair(group[v].day, group[v].trip), stream.group_key(g))
            << "iteration " << iter;
        ASSERT_EQ(group[v].testbed, stream.testbed());
        ASSERT_EQ(group[v].duration, group.front().duration);
      }
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(opened, 30);
  EXPECT_LT(opened, 270);
  EXPECT_GT(groups_loaded, 30);
}

}  // namespace
}  // namespace vifi::tracegen
