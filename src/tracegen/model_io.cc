#include "tracegen/model_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vifi::tracegen {

namespace {

constexpr const char* kMagicPrefix = "# vifi-tracemodel v";
constexpr int kVersion = 1;

[[noreturn]] void fail(int line_no, const std::string& why) {
  throw std::runtime_error("tracemodel parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

/// Shortest round-trip double rendering (same scheme as runtime::ResultSink).
std::string fmt(double v) {
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw std::runtime_error("tracemodel: bad double");
  return std::string(buf, end);
}

void save_samples(std::ostream& os, const char* tag, NodeId bs,
                  const std::vector<double>& xs) {
  os << tag << " " << bs.value() << " " << xs.size();
  for (const double x : xs) os << " " << fmt(x);
  os << "\n";
}

std::vector<double> load_samples(std::istringstream& ls, int line_no) {
  std::size_t n = 0;
  ls >> n;
  if (!ls) fail(line_no, "bad sample count");
  // Grow as values arrive rather than trusting the count: a hostile one
  // (-1 wraps to SIZE_MAX) must read as truncation, not a huge allocation.
  std::vector<double> xs;
  double x = 0.0;
  while (xs.size() < n && ls >> x) xs.push_back(x);
  if (xs.size() < n) fail(line_no, "truncated sample list");
  return xs;
}

}  // namespace

void save_model(const TraceModel& model, std::ostream& os) {
  os << kMagicPrefix << kVersion << "\n";
  os << "model " << model.testbed << " duration_us "
     << model.trip_duration.to_micros() << " bps " << model.beacons_per_second
     << " gap_s " << model.fit.gap_tolerance_s << " trips "
     << model.source_trips << " links " << model.links.size() << "\n";
  for (const LinkModel& l : model.links) {
    os << "link " << l.bs.value() << " rate " << fmt(l.contact_rate_hz)
       << " on_us " << l.mean_on.to_micros() << " off_us "
       << l.mean_off.to_micros() << " rssi_mean " << fmt(l.rssi_mean_dbm)
       << " rssi_sd " << fmt(l.rssi_stddev_dbm) << "\n";
    save_samples(os, "durations", l.bs, l.duration_s);
    save_samples(os, "losses", l.bs, l.loss_level);
  }
}

void save_model_file(const TraceModel& model, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_model(model, os);
}

TraceModel load_model(std::istream& is) {
  std::string line;
  int line_no = 1;
  if (!std::getline(is, line)) fail(line_no, "empty input");
  if (line.rfind(kMagicPrefix, 0) != 0)
    fail(line_no, "not a vifi-tracemodel file (bad magic)");
  if (line != kMagicPrefix + std::to_string(kVersion))
    fail(line_no, "unsupported version '" +
                      line.substr(std::string(kMagicPrefix).size() - 1) +
                      "' (this build reads v" + std::to_string(kVersion) +
                      ")");

  TraceModel model;
  bool have_header = false;
  std::size_t expected_links = 0;
  LinkModel* open_link = nullptr;
  bool have_durations = false, have_losses = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "model") {
      std::string kw;
      std::int64_t dur_us = 0;
      ls >> model.testbed >> kw >> dur_us >> kw >> model.beacons_per_second >>
          kw >> model.fit.gap_tolerance_s >> kw >> model.source_trips >> kw >>
          expected_links;
      if (!ls) fail(line_no, "bad model header");
      if (model.beacons_per_second <= 0)
        fail(line_no, "beacons_per_second must be positive");
      model.trip_duration = Time::micros(dur_us);
      have_header = true;
    } else if (tag == "link") {
      if (!have_header) fail(line_no, "link before model header");
      if (open_link != nullptr && !(have_durations && have_losses))
        fail(line_no, "previous link is missing its sample lists");
      LinkModel l;
      int id = -1;
      std::string kw;
      std::int64_t on_us = 0, off_us = 0;
      ls >> id >> kw >> l.contact_rate_hz >> kw >> on_us >> kw >> off_us >>
          kw >> l.rssi_mean_dbm >> kw >> l.rssi_stddev_dbm;
      if (!ls || id < 0) fail(line_no, "bad link line");
      l.bs = NodeId(id);
      l.mean_on = Time::micros(on_us);
      l.mean_off = Time::micros(off_us);
      model.links.push_back(std::move(l));
      open_link = &model.links.back();
      have_durations = have_losses = false;
    } else if (tag == "durations" || tag == "losses") {
      int id = -1;
      ls >> id;
      if (open_link == nullptr || id != open_link->bs.value())
        fail(line_no, tag + " line does not follow its link line");
      auto xs = load_samples(ls, line_no);
      if (tag == "durations") {
        open_link->duration_s = std::move(xs);
        have_durations = true;
      } else {
        open_link->loss_level = std::move(xs);
        have_losses = true;
      }
      // The two lists are parallel (one fitted contact per index); a
      // length mismatch would index out of bounds at synthesis time.
      if (have_durations && have_losses &&
          open_link->duration_s.size() != open_link->loss_level.size())
        fail(line_no, "link " + std::to_string(open_link->bs.value()) +
                          " has " + std::to_string(open_link->duration_s.size()) +
                          " durations but " +
                          std::to_string(open_link->loss_level.size()) +
                          " losses (parallel lists must match)");
    } else {
      fail(line_no, "unknown tag: " + tag);
    }
  }
  if (!have_header) fail(line_no, "missing model header");
  if (model.links.size() != expected_links)
    fail(line_no, "truncated input: header names " +
                      std::to_string(expected_links) + " links, found " +
                      std::to_string(model.links.size()));
  if (open_link != nullptr && !(have_durations && have_losses))
    fail(line_no, "truncated input: last link is missing its sample lists");
  return model;
}

TraceModel load_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_model(is);
}

}  // namespace vifi::tracegen
