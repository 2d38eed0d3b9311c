#include "runtime/experiment.h"

#include <algorithm>
#include <filesystem>
#include <span>

#include "util/contracts.h"

namespace vifi::runtime {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t value) {
  return splitmix64(seed ^ splitmix64(value));
}

std::uint64_t mix_seed(std::uint64_t seed, std::string_view label) {
  std::uint64_t h = splitmix64(seed);
  for (const char c : label)
    h = splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}

std::vector<ExperimentPoint> ExperimentSpec::enumerate() const {
  std::vector<ExperimentPoint> points;
  points.reserve(grid.size());
  // An empty trace_sets axis enumerates one pass with no trace set — the
  // historical stochastic-campaign sweep, bit-for-bit. Same shape for the
  // CoordTier axis: absent by default, so historical sweeps enumerate (and
  // serialise) exactly as before.
  const std::string none[1];
  std::span<const std::string> trace_sets = grid.trace_sets;
  if (trace_sets.empty()) trace_sets = none;
  std::span<const std::string> coordinations = grid.coordinations;
  if (coordinations.empty()) coordinations = none;
  // Every stochastic replay campaign is replayed by one point per policy x
  // coordination pair; with more than one, they share a pool.
  const std::size_t consumers = grid.policies.size() * coordinations.size();
  std::shared_ptr<CampaignPool> pool;
  if (workload == "replay" && consumers > 1 &&
      std::ranges::any_of(trace_sets,
                          [](const std::string& t) { return t.empty(); }))
    pool = make_campaign_pool(consumers);
  std::size_t index = 0;
  for (const auto& bed : grid.testbeds) {
    for (const int fleet : grid.fleet_sizes) {
      VIFI_EXPECTS(fleet > 0);
      for (const auto& trace_set : trace_sets) {
        for (const auto& policy : grid.policies) {
          for (const auto& coordination : coordinations) {
          for (const std::uint64_t seed : grid.seeds) {
            ExperimentPoint& p = points.emplace_back();
            p.index = index++;
            p.testbed = bed;
            p.fleet_size = fleet;
            p.trace_set = trace_set;
            p.policy = policy;
            p.coordination = coordination;
            p.seed = seed;
            p.days = days;
            p.trips_per_day = trips_per_day;
            p.trip_duration = trip_duration;
            p.workload = workload;
            p.session = session;
            p.cull_medium = cull_medium;
            p.trace_dir = trace_dir;
            p.metric_columns = metric_columns;
            p.campaign_seed = mix_seed(mix_seed(base_seed, bed), seed);
            // Fleet size 1 mixes nothing in: single-vehicle sweeps keep the
            // pre-fleet seed derivation, so their output bytes are stable.
            if (fleet > 1)
              p.campaign_seed =
                  mix_seed(p.campaign_seed,
                           "fleet" + std::to_string(fleet));
            // Same rule for the replay axis: stochastic points (empty
            // trace set) keep their pre-tracegen derivation. Only the
            // catalog directory's *name* is mixed in — the same catalog
            // reached via ./cat, /abs/cat or cat/ must replay
            // identically (the gated benches rely on this holding
            // across machines with different temp roots).
            if (!trace_set.empty()) {
              std::filesystem::path dir =
                  std::filesystem::path(trace_set).lexically_normal();
              if (!dir.has_filename()) dir = dir.parent_path();
              const std::string id = dir.filename().string();
              p.campaign_seed = mix_seed(p.campaign_seed,
                                         "trace_set:" +
                                             (id.empty() ? trace_set : id));
            } else {
              p.campaigns = pool;
            }
            // The coordination label is mixed into *neither* seed: a coord
            // point and its pab twin must replay/draw identical trips so
            // the comparison isolates the coordination tier itself.
            p.point_seed = mix_seed(p.campaign_seed, policy);
          }
          }
        }
      }
    }
  }
  return points;
}

PointResult identity_of(const ExperimentPoint& point) {
  PointResult r;
  r.index = point.index;
  r.testbed = point.testbed;
  r.fleet = point.fleet_size;
  r.trace_set = point.trace_set;
  r.policy = point.policy;
  r.coordination = point.coordination;
  r.seed = point.seed;
  return r;
}

scenario::Testbed make_testbed(const std::string& name, int fleet_size) {
  if (name == "VanLAN") return scenario::make_vanlan(fleet_size);
  if (name == "DieselNet-Ch1") return scenario::make_dieselnet(1, fleet_size);
  if (name == "DieselNet-Ch6") return scenario::make_dieselnet(6, fleet_size);
  VIFI_EXPECTS(!"unknown testbed name");
  return scenario::make_vanlan();  // unreachable
}

bool known_testbed(const std::string& name) {
  return name == "VanLAN" || name == "DieselNet-Ch1" ||
         name == "DieselNet-Ch6";
}

}  // namespace vifi::runtime
