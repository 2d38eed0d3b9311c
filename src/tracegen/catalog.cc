#include "tracegen/catalog.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "trace/trace_io.h"

namespace vifi::tracegen {

namespace {

constexpr const char* kManifestName = "manifest.txt";
constexpr const char* kMagic = "# vifi-catalog v1";

[[noreturn]] void fail(const std::string& dir, const std::string& why) {
  throw std::runtime_error("catalog error (" + dir + "): " + why);
}

struct ManifestEntry {
  std::string file;
  int day = 0;
  int trip = 0;
  NodeId vehicle;
};

/// Everything the manifest alone pins down: the header, the entries in
/// canonical (day, trip, vehicle) order with duplicates rejected.
struct ParsedManifest {
  std::string name;
  std::string testbed;
  int fleet_size = 0;
  std::vector<ManifestEntry> entries;
};

ParsedManifest parse_manifest(const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path manifest_path = fs::path(dir) / kManifestName;
  std::ifstream is(manifest_path);
  if (!is)
    fail(dir, "cannot open " + manifest_path.string() +
                  " (not a trace catalog?)");

  ParsedManifest m;
  std::string line;
  int line_no = 1;
  if (!std::getline(is, line) || line != kMagic) {
    if (line.rfind("# vifi-catalog v", 0) == 0)
      fail(dir, "unsupported manifest version '" + line.substr(2) +
                    "' (this build reads vifi-catalog v1)");
    fail(dir, "bad manifest magic (expected '" + std::string(kMagic) + "')");
  }
  bool have_header = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "catalog") {
      std::string kw;
      ls >> m.name >> kw >> m.testbed >> kw >> m.fleet_size;
      if (!ls || m.fleet_size <= 0)
        fail(dir, "bad catalog header at manifest line " +
                      std::to_string(line_no));
      have_header = true;
    } else if (tag == "trace") {
      ManifestEntry e;
      std::string kw;
      int veh = -1;
      ls >> e.file >> kw >> e.day >> kw >> e.trip >> kw >> veh;
      if (!ls || veh < 0)
        fail(dir, "bad trace line at manifest line " + std::to_string(line_no));
      e.vehicle = NodeId(veh);
      m.entries.push_back(std::move(e));
    } else {
      fail(dir, "unknown manifest tag '" + tag + "' at line " +
                    std::to_string(line_no));
    }
  }
  if (!have_header) fail(dir, "manifest has no catalog header");
  if (m.entries.empty()) fail(dir, "manifest names no traces");

  // Canonical order regardless of how the manifest lists its lines, so
  // two semantically identical catalogs replay byte-identically.
  std::sort(m.entries.begin(), m.entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return std::tuple(a.day, a.trip, a.vehicle) <
                     std::tuple(b.day, b.trip, b.vehicle);
            });
  std::set<std::tuple<int, int, int>> seen;
  for (const ManifestEntry& e : m.entries) {
    if (!seen.insert({e.day, e.trip, e.vehicle.value()}).second)
      fail(dir, "duplicate trace for day " + std::to_string(e.day) +
                    " trip " + std::to_string(e.trip) + " vehicle " +
                    e.vehicle.to_string());
  }
  return m;
}

/// Reads one manifest entry's trace and checks it against the manifest.
trace::MeasurementTrace load_entry_trace(const std::string& dir,
                                         const ManifestEntry& e,
                                         const std::string& testbed) {
  trace::MeasurementTrace t;
  try {
    t = trace::load_trace_file((std::filesystem::path(dir) / e.file).string());
  } catch (const std::exception& ex) {
    fail(dir, std::string("trace '") + e.file + "': " + ex.what());
  }
  if (t.testbed != testbed)
    fail(dir, "trace '" + e.file + "' is from testbed '" + t.testbed +
                  "' but the manifest says '" + testbed + "'");
  if (t.vehicle != e.vehicle)
    fail(dir, "trace '" + e.file + "' was logged by " +
                  t.vehicle.to_string() + " but the manifest says " +
                  e.vehicle.to_string());
  if (t.day != e.day || t.trip != e.trip)
    fail(dir, "trace '" + e.file + "' header (day " +
                  std::to_string(t.day) + ", trip " + std::to_string(t.trip) +
                  ") contradicts the manifest");
  return t;
}

}  // namespace

TraceCatalog TraceCatalog::load(const std::string& dir) {
  TraceCatalog cat;
  cat.stream_ = CatalogStream::open(dir);
  cat.campaign_.testbed = cat.stream_.testbed();
  for (std::size_t g = 0; g < cat.stream_.trip_groups(); ++g)
    for (trace::MeasurementTrace& t : cat.stream_.load_group(g))
      cat.campaign_.trips.push_back(std::move(t));
  return cat;
}

CatalogStream CatalogStream::open(const std::string& dir) {
  ParsedManifest m = parse_manifest(dir);
  CatalogStream stream;
  stream.dir_ = dir;
  stream.name_ = std::move(m.name);
  stream.testbed_ = std::move(m.testbed);
  stream.fleet_size_ = m.fleet_size;

  // Group in canonical (day, trip) order; entries are already sorted by
  // (day, trip, vehicle), so each group arrives in vehicle order too.
  // Vehicle-set and fleet-size validation need only the manifest; ragged
  // durations and header contradictions need the trace files and are
  // deferred to load_group.
  std::map<std::pair<int, int>, std::vector<GroupEntry>> groups;
  for (ManifestEntry& e : m.entries)
    groups[{e.day, e.trip}].push_back(
        GroupEntry{std::move(e.file), e.day, e.trip, e.vehicle});

  std::vector<int> fleet;
  for (auto& [key, group] : groups) {
    std::vector<int> vehicles;
    vehicles.reserve(group.size());
    for (const GroupEntry& e : group) vehicles.push_back(e.vehicle.value());
    if (fleet.empty())
      fleet = vehicles;
    else if (fleet != vehicles)
      fail(dir, "trip (day " + std::to_string(key.first) + ", trip " +
                    std::to_string(key.second) +
                    ") has a different vehicle set than the first trip");
    stream.groups_.push_back(std::move(group));
  }
  if (static_cast<int>(fleet.size()) != stream.fleet_size_)
    fail(dir, "manifest says fleet " + std::to_string(stream.fleet_size_) +
                  " but trips carry " + std::to_string(fleet.size()) +
                  " vehicles");
  for (const int v : fleet) stream.vehicle_ids_.push_back(NodeId(v));
  std::set<int> days;
  for (const auto& group : stream.groups_) days.insert(group.front().day);
  stream.days_ = std::max(1, static_cast<int>(days.size()));
  return stream;
}

std::pair<int, int> CatalogStream::group_key(std::size_t group) const {
  if (group >= groups_.size())
    fail(dir_, "trip group " + std::to_string(group) + " out of range (" +
                   std::to_string(groups_.size()) + " groups)");
  return {groups_[group].front().day, groups_[group].front().trip};
}

std::vector<trace::MeasurementTrace> CatalogStream::load_group(
    std::size_t group) const {
  const auto [day, trip] = group_key(group);  // Range-checks the index.
  std::vector<trace::MeasurementTrace> traces;
  traces.reserve(groups_[group].size());
  for (const GroupEntry& e : groups_[group]) {
    ManifestEntry entry{e.file, e.day, e.trip, e.vehicle};
    traces.push_back(load_entry_trace(dir_, entry, testbed_));
    // The fleet loss schedule has one horizon per trip: a ragged group
    // would either truncate long logs or measure past short ones as dead
    // air.
    if (traces.back().duration != traces.front().duration) {
      fail(dir_, "trip (day " + std::to_string(day) + ", trip " +
                     std::to_string(trip) + ") is ragged: vehicle " +
                     traces.back().vehicle.to_string() + " logged " +
                     traces.back().duration.to_string() +
                     " but the group's first trace logged " +
                     traces.front().duration.to_string());
    }
  }
  return traces;
}

std::vector<const trace::MeasurementTrace*> TraceCatalog::fleet_trip(
    std::size_t group) const {
  stream_.group_key(group);  // Range-checks the index.
  // Every group carries exactly the fleet, so group g is the g-th run of
  // fleet_size traces.
  const std::size_t fleet = static_cast<std::size_t>(fleet_size());
  std::vector<const trace::MeasurementTrace*> out;
  out.reserve(fleet);
  for (std::size_t i = group * fleet; i < (group + 1) * fleet; ++i)
    out.push_back(&campaign_.trips[i]);
  return out;
}

void write_catalog(const std::string& dir, const std::string& catalog_name,
                   const trace::Campaign& campaign) {
  namespace fs = std::filesystem;
  if (campaign.trips.empty()) fail(dir, "refusing to write an empty catalog");
  if (catalog_name.empty() ||
      catalog_name.find_first_of(" \t\n") != std::string::npos)
    fail(dir, "catalog name must be a single non-empty token");

  std::map<std::pair<int, int>, std::set<int>> fleets;
  for (const trace::MeasurementTrace& t : campaign.trips) {
    if (!t.vehicle.valid())
      fail(dir, "trace (day " + std::to_string(t.day) + ", trip " +
                    std::to_string(t.trip) +
                    ") names no logging vehicle; legacy single-vehicle "
                    "traces cannot form a catalog");
    if (t.testbed != campaign.trips.front().testbed)
      fail(dir, "traces from different testbeds ('" +
                    campaign.trips.front().testbed + "' vs '" + t.testbed +
                    "')");
    if (!fleets[{t.day, t.trip}].insert(t.vehicle.value()).second)
      fail(dir, "duplicate trace for day " + std::to_string(t.day) +
                    " trip " + std::to_string(t.trip) + " vehicle " +
                    t.vehicle.to_string());
  }
  const std::set<int>& fleet = fleets.begin()->second;
  for (const auto& [key, vehicles] : fleets) {
    if (vehicles != fleet)
      fail(dir, "trip (day " + std::to_string(key.first) + ", trip " +
                    std::to_string(key.second) +
                    ") has a different vehicle set than the first trip");
  }

  const fs::path root(dir);
  fs::create_directories(root);
  std::ofstream manifest(root / kManifestName);
  if (!manifest)
    fail(dir, "cannot write " + (root / kManifestName).string());
  manifest << kMagic << "\n";
  manifest << "catalog " << catalog_name << " testbed "
           << campaign.trips.front().testbed << " fleet " << fleet.size()
           << "\n";
  for (const trace::MeasurementTrace& t : campaign.trips) {
    const std::string file = "day" + std::to_string(t.day) + "_trip" +
                             std::to_string(t.trip) + "_veh" +
                             std::to_string(t.vehicle.value()) + ".vifitrace";
    trace::save_trace_file(t, (root / file).string());
    manifest << "trace " << file << " day " << t.day << " trip " << t.trip
             << " vehicle " << t.vehicle.value() << "\n";
  }
}

namespace {

std::mutex g_cache_mu;
std::map<std::string, std::shared_ptr<const TraceCatalog>>* g_cache = nullptr;

std::string cache_key(const std::string& dir) {
  std::error_code ec;
  const auto canonical = std::filesystem::weakly_canonical(dir, ec);
  return ec ? dir : canonical.string();
}

}  // namespace

std::shared_ptr<const TraceCatalog> load_catalog_shared(
    const std::string& dir) {
  const std::string key = cache_key(dir);
  {
    const std::lock_guard<std::mutex> lock(g_cache_mu);
    if (g_cache != nullptr) {
      const auto it = g_cache->find(key);
      if (it != g_cache->end()) return it->second;
    }
  }
  // Parse outside the lock: a big catalog must not serialise unrelated
  // workers. Two threads racing the same cold key both parse; the first
  // insert wins and both end up sharing it on the next lookup.
  auto parsed = std::make_shared<const TraceCatalog>(TraceCatalog::load(dir));
  const std::lock_guard<std::mutex> lock(g_cache_mu);
  if (g_cache == nullptr)
    g_cache = new std::map<std::string, std::shared_ptr<const TraceCatalog>>();
  const auto [it, inserted] = g_cache->emplace(key, std::move(parsed));
  return it->second;
}

void drop_catalog_cache() {
  const std::lock_guard<std::mutex> lock(g_cache_mu);
  if (g_cache != nullptr) g_cache->clear();
}

}  // namespace vifi::tracegen
