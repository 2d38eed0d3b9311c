#include "runtime/result.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/export.h"
#include "util/contracts.h"

namespace vifi::runtime {

namespace {

using obs::json_escape;

/// Shortest round-trip rendering via std::to_chars: locale-independent (a
/// host program switching LC_NUMERIC cannot corrupt the JSON/CSV) and
/// identical on every run of the same binary.
std::string format_double(double v) {
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  VIFI_EXPECTS(ec == std::errc{});
  return std::string(buf, end);
}

/// CSV cells are plain identifiers and numbers; quote defensively anyway.
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

ResultSink::ResultSink(ResultSink&& o) noexcept {
  const std::lock_guard<std::mutex> lock(o.mu_);
  results_ = std::move(o.results_);
}

ResultSink& ResultSink::operator=(ResultSink&& o) noexcept {
  if (this != &o) {
    const std::scoped_lock lock(mu_, o.mu_);
    results_ = std::move(o.results_);
  }
  return *this;
}

void ResultSink::add(PointResult r) {
  const std::lock_guard<std::mutex> lock(mu_);
  results_.push_back(std::move(r));
}

std::size_t ResultSink::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

bool ResultSink::any_errors() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(results_.begin(), results_.end(),
                     [](const PointResult& r) { return !r.error.empty(); });
}

std::vector<PointResult> ResultSink::ordered() const {
  std::vector<PointResult> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = results_;
  }
  std::sort(out.begin(), out.end(),
            [](const PointResult& a, const PointResult& b) {
              return a.index < b.index;
            });
  return out;
}

std::string ResultSink::to_json() const {
  const auto results = ordered();
  // Replay sweeps carry the trace_set field; sweeps without one keep
  // their historical byte layout.
  const bool any_trace_set =
      std::any_of(results.begin(), results.end(),
                  [](const PointResult& r) { return !r.trace_set.empty(); });
  const bool any_coordination = std::any_of(
      results.begin(), results.end(),
      [](const PointResult& r) { return !r.coordination.empty(); });
  std::ostringstream os;
  os << "{\n  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    os << "    {\n"
       << "      \"index\": " << r.index << ",\n"
       << "      \"testbed\": \"" << json_escape(r.testbed) << "\",\n"
       << "      \"fleet\": " << r.fleet << ",\n";
    if (any_trace_set)
      os << "      \"trace_set\": \"" << json_escape(r.trace_set) << "\",\n";
    os << "      \"policy\": \"" << json_escape(r.policy) << "\",\n";
    if (any_coordination)
      os << "      \"coordination\": \"" << json_escape(r.coordination)
         << "\",\n";
    os << "      \"seed\": " << r.seed << ",\n";
    if (!r.error.empty())
      os << "      \"error\": \"" << json_escape(r.error) << "\",\n";
    os << "      \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : r.metrics) {
      os << (first ? "" : ", ") << "\"" << json_escape(key)
         << "\": " << format_double(value);
      first = false;
    }
    os << "},\n      \"series\": {";
    first = true;
    for (const auto& [key, values] : r.series) {
      os << (first ? "" : ", ") << "\"" << json_escape(key) << "\": [";
      for (std::size_t j = 0; j < values.size(); ++j)
        os << (j != 0 ? ", " : "") << format_double(values[j]);
      os << "]";
      first = false;
    }
    os << "}\n    }" << (i + 1 != results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string ResultSink::to_csv() const {
  const auto results = ordered();
  // Header: fixed point columns plus the union of scalar metric keys
  // (sorted, so column order is deterministic). Series are JSON-only.
  std::set<std::string> keys;
  for (const auto& r : results)
    for (const auto& [key, value] : r.metrics) {
      (void)value;
      keys.insert(key);
    }
  const bool any_trace_set =
      std::any_of(results.begin(), results.end(),
                  [](const PointResult& r) { return !r.trace_set.empty(); });
  const bool any_coordination = std::any_of(
      results.begin(), results.end(),
      [](const PointResult& r) { return !r.coordination.empty(); });
  std::ostringstream os;
  os << "index,testbed,fleet";
  if (any_trace_set) os << ",trace_set";
  os << ",policy";
  if (any_coordination) os << ",coordination";
  os << ",seed";
  for (const auto& key : keys) os << "," << csv_escape(key);
  os << ",error\n";
  for (const auto& r : results) {
    os << r.index << "," << csv_escape(r.testbed) << "," << r.fleet;
    if (any_trace_set) os << "," << csv_escape(r.trace_set);
    os << "," << csv_escape(r.policy);
    if (any_coordination) os << "," << csv_escape(r.coordination);
    os << "," << r.seed;
    for (const auto& key : keys) {
      os << ",";
      const auto it = r.metrics.find(key);
      if (it != r.metrics.end()) os << format_double(it->second);
    }
    os << "," << csv_escape(r.error) << "\n";
  }
  return os.str();
}

void ResultSink::write_json(const std::string& path) const {
  std::ofstream out(path);
  VIFI_EXPECTS(out.good());
  out << to_json();
}

void ResultSink::write_csv(const std::string& path) const {
  std::ofstream out(path);
  VIFI_EXPECTS(out.good());
  out << to_csv();
}

}  // namespace vifi::runtime
