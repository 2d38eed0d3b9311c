#include "trace/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/contracts.h"

namespace vifi::trace {

namespace {
constexpr const char* kMagic = "# vifi-trace v1";
constexpr const char* kMagicPrefix = "# vifi-trace v";

[[noreturn]] void fail(int line_no, const std::string& why) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

/// A slot line's node id: a non-empty token of digits, within int.
int node_id(const std::string& tok, int line_no) {
  int id = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, id);
  if (tok[0] < '0' || tok[0] > '9' || ec != std::errc() || ptr != end)
    fail(line_no, "bad node id '" + tok + "' in slot line");
  return id;
}
}  // namespace

void save_trace(const MeasurementTrace& t, std::ostream& os) {
  os << kMagic << "\n";
  os << "trace " << t.testbed << " day " << t.day << " trip " << t.trip
     << " duration_us " << t.duration.to_micros() << " bps "
     << t.beacons_per_second << "\n";
  // The logging vehicle. Newly generated campaigns always name it (fleet
  // or not); traces loaded from pre-fleet files carry no vehicle line and
  // round-trip byte-identically.
  if (t.vehicle.valid()) os << "vehicle " << t.vehicle.value() << "\n";
  for (NodeId bs : t.bs_ids) os << "bs " << bs.value() << "\n";
  for (std::size_t i = 0; i < t.slots.size(); ++i) {
    os << "slot " << t.slots.start(i).to_micros() << " " << t.slots.pos(i).x
       << " " << t.slots.pos(i).y << " down";
    for (NodeId id : t.slots.down_ids(i)) os << " " << id.value();
    os << " up";
    for (NodeId id : t.slots.up_ids(i)) os << " " << id.value();
    os << "\n";
  }
  for (const BeaconObs& b : t.vehicle_beacons)
    os << "beacon " << b.t.to_micros() << " " << b.bs.value() << " "
       << b.rssi_dbm << "\n";
  for (const BsBeaconObs& b : t.bs_beacons)
    os << "bsbeacon " << b.t.to_micros() << " " << b.tx.value() << " "
       << b.rx.value() << "\n";
}

void save_trace_file(const MeasurementTrace& t, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_trace(t, os);
}

MeasurementTrace load_trace(std::istream& is) {
  MeasurementTrace t;
  std::string line;
  int line_no = 1;
  if (!std::getline(is, line)) fail(line_no, "empty input");
  if (line != kMagic) {
    // Distinguish "a vifi trace from a different format revision" from
    // "not a vifi trace at all" — the fixes differ (upgrade vs wrong file).
    if (line.rfind(kMagicPrefix, 0) == 0)
      fail(line_no, "unsupported trace version '" + line.substr(2) +
                        "' (this build reads vifi-trace v1)");
    fail(line_no, "not a vifi-trace file (expected '" + std::string(kMagic) +
                      "')");
  }
  bool have_header = false;
  // A `bs` line after slot lines changes the positions the slot masks
  // are taken over: the slots are added again once the list is complete.
  bool relist = false;
  std::vector<NodeId> down, up;  // One slot line's ids.
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "trace") {
      std::string kw[4];
      std::int64_t dur_us = 0;
      ls >> t.testbed >> kw[0] >> t.day >> kw[1] >> t.trip >> kw[2] >>
          dur_us >> kw[3] >> t.beacons_per_second;
      if (!ls || kw[0] != "day" || kw[1] != "trip" || kw[2] != "duration_us" ||
          kw[3] != "bps")
        fail(line_no, "bad or truncated trace header: '" + line + "'");
      if (t.beacons_per_second <= 0)
        fail(line_no, "beacons_per_second must be positive");
      if (dur_us < 0) fail(line_no, "negative trip duration");
      t.duration = Time::micros(dur_us);
      have_header = true;
    } else if (tag == "vehicle") {
      int id = -1;
      ls >> id;
      if (!ls || id < 0) fail(line_no, "bad vehicle line: '" + line + "'");
      t.vehicle = NodeId(id);
    } else if (tag == "bs") {
      int id = -1;
      ls >> id;
      if (!ls || id < 0) fail(line_no, "bad bs line: '" + line + "'");
      t.bs_ids.push_back(NodeId(id));
      if (!t.slots.empty()) relist = true;
    } else if (tag == "slot") {
      std::int64_t us = 0;
      mobility::Vec2 pos;
      std::string kw;
      ls >> us >> pos.x >> pos.y >> kw;
      if (!ls || kw != "down")
        fail(line_no, "bad or truncated slot line: '" + line + "'");
      down.clear();
      up.clear();
      std::string tok;
      bool saw_up = false;
      while (ls >> tok) {
        if (tok == "up") {
          if (saw_up) fail(line_no, "slot line has two 'up' markers");
          saw_up = true;
          continue;
        }
        (saw_up ? up : down).push_back(NodeId(node_id(tok, line_no)));
      }
      if (!saw_up)
        fail(line_no, "truncated slot line (missing 'up' marker): '" + line +
                          "'");
      t.add_slot(Time::micros(us), pos, down, up);
    } else if (tag == "beacon") {
      BeaconObs b;
      std::int64_t us = 0;
      int id = -1;
      ls >> us >> id >> b.rssi_dbm;
      if (!ls || id < 0)
        fail(line_no, "bad or truncated beacon line: '" + line + "'");
      b.t = Time::micros(us);
      b.bs = NodeId(id);
      t.vehicle_beacons.push_back(b);
    } else if (tag == "bsbeacon") {
      BsBeaconObs b;
      std::int64_t us = 0;
      int txid = -1, rxid = -1;
      ls >> us >> txid >> rxid;
      if (!ls || txid < 0 || rxid < 0)
        fail(line_no, "bad or truncated bsbeacon line: '" + line + "'");
      b.t = Time::micros(us);
      b.tx = NodeId(txid);
      b.rx = NodeId(rxid);
      t.bs_beacons.push_back(b);
    } else {
      fail(line_no, "unknown tag: " + tag);
    }
  }
  if (!have_header)
    fail(line_no, "missing trace header (truncated or empty trace?)");
  if (relist) {
    const ProbeLog parsed = std::move(t.slots);
    t.slots = {};
    t.add_slots(parsed);
  }
  return t;
}

MeasurementTrace load_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_trace(is);
}

}  // namespace vifi::trace
