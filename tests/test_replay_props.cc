// Property tests for the replay study's fast paths: the mobility position
// path, the slot masks and the policies' flat tables must answer bit for
// bit what the straightforward formulas answer — std::fmod +
// std::upper_bound + `%` wrap for a position on a path, a leg-by-leg walk
// for a bus lap, a scan of the slot's lists for slot membership, and
// NodeId-keyed maps for the per-second policy state — over seeded inputs
// that include every boundary the fast paths special-case.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "handoff/policies.h"
#include "handoff/replay.h"
#include "mobility/layouts.h"
#include "mobility/mobility.h"
#include "mobility/path.h"
#include "trace/slot_masks.h"
#include "util/ewma.h"
#include "util/rng.h"

namespace vifi {
namespace {

using mobility::Vec2;
using sim::NodeId;

/// Bitwise equality, so -0.0 and 0.0 (or two NaN payloads) differ.
bool same_bits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

/// The reference position: fmod (or clamp), upper_bound over the
/// cumulative lengths, waypoints indexed modulo their count.
struct ReferencePath {
  std::vector<Vec2> waypoints;
  bool closed;
  std::vector<double> cumulative;

  ReferencePath(std::vector<Vec2> w, bool c) : waypoints(std::move(w)), closed(c) {
    cumulative.push_back(0.0);
    for (std::size_t i = 1; i < waypoints.size(); ++i)
      cumulative.push_back(cumulative.back() +
                           mobility::distance(waypoints[i - 1], waypoints[i]));
    if (closed)
      cumulative.push_back(cumulative.back() +
                           mobility::distance(waypoints.back(), waypoints.front()));
  }

  Vec2 at(double dist) const {
    const double len = cumulative.back();
    if (closed) {
      dist = std::fmod(dist, len);
      if (dist < 0.0) dist += len;
    } else {
      dist = std::clamp(dist, 0.0, len);
    }
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), dist);
    std::size_t seg = static_cast<std::size_t>(
        std::max<std::ptrdiff_t>(0, it - cumulative.begin() - 1));
    if (seg >= cumulative.size() - 1) seg = cumulative.size() - 2;
    const double seg_start = cumulative[seg];
    const double seg_len = cumulative[seg + 1] - seg_start;
    const double t = seg_len > 0.0 ? (dist - seg_start) / seg_len : 0.0;
    const Vec2 a = waypoints[seg % waypoints.size()];
    const Vec2 b = waypoints[(seg + 1) % waypoints.size()];
    return mobility::lerp(a, b, t);
  }
};

std::vector<Vec2> random_waypoints(Rng& rng) {
  std::vector<Vec2> w;
  const auto n = rng.uniform_int(2, 9);
  for (std::int64_t i = 0; i < n; ++i) {
    // Now and then a repeated waypoint: a zero-length segment.
    if (!w.empty() && rng.bernoulli(0.1)) {
      w.push_back(w.back());
      continue;
    }
    w.push_back({rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)});
  }
  if (w.front() == w.back() && w.size() == 2) w.back().x += 1.0;
  return w;
}

/// Every distance the fast path treats specially, plus seeded ones.
std::vector<double> probe_distances(const std::vector<double>& cumulative,
                                    Rng& rng) {
  const double len = cumulative.back();
  std::vector<double> d = {0.0,
                           -0.0,
                           len,
                           2.0 * len,
                           3.0 * len,
                           -len,
                           -2.0 * len,
                           std::nextafter(len, 0.0),
                           std::nextafter(len, 4.0 * len),
                           std::nextafter(2.0 * len, 0.0),
                           std::nextafter(2.0 * len, 4.0 * len),
                           std::nextafter(0.0, -1.0),
                           std::nextafter(0.0, 1.0),
                           len * 1e9,
                           -len * 1e9};
  for (const double c : cumulative)
    for (const double k : {-2.0, -1.0, 0.0, 1.0, 2.0, 5.0}) {
      d.push_back(c + k * len);
      d.push_back(std::nextafter(c + k * len, -1e300));
      d.push_back(std::nextafter(c + k * len, 1e300));
    }
  for (int i = 0; i < 200; ++i) d.push_back(rng.uniform(-6.0 * len, 6.0 * len));
  for (int i = 0; i < 50; ++i) d.push_back(rng.uniform(len, 2.0 * len));
  return d;
}

TEST(PathProps, PositionMatchesTheFmodFormulaBitForBit) {
  Rng rng(2908);
  for (int trial = 0; trial < 300; ++trial) {
    const bool closed = trial % 3 != 0;
    const std::vector<Vec2> w = random_waypoints(rng);
    const ReferencePath ref(w, closed);
    const mobility::WaypointPath path(w, closed);
    ASSERT_EQ(path.total_length(), ref.cumulative.back());
    for (const double d : probe_distances(ref.cumulative, rng)) {
      const Vec2 want = ref.at(d);
      const Vec2 got = path.position_at_distance(d);
      ASSERT_TRUE(same_bits(got, want))
          << "trial " << trial << (closed ? " closed" : " open") << " dist "
          << d << ": got (" << got.x << ", " << got.y << ") want (" << want.x
          << ", " << want.y << ")";
    }
  }
}

/// The reference bus: each call walks the stops, recomputing every leg's
/// cruise time, then places the lap distance with ReferencePath.
struct ReferenceBus {
  ReferencePath path;
  double cruise_mps;
  std::vector<mobility::BusMobility::Stop> stops;  // sorted
  Time phase;
  Time lap;

  Vec2 at(Time t) const {
    const Time shifted = t + phase;
    const double laps = shifted / lap;
    Time in_lap = shifted - lap * std::floor(laps);
    if (in_lap >= lap) in_lap -= lap;
    return path.at(lap_distance(in_lap));
  }

  double lap_distance(Time t) const {
    double pos_m = 0.0;
    for (const auto& s : stops) {
      const Time leg_time = Time::seconds((s.at_distance_m - pos_m) / cruise_mps);
      if (t <= leg_time) return pos_m + cruise_mps * t.to_seconds();
      t -= leg_time;
      pos_m = s.at_distance_m;
      if (t <= s.dwell) return pos_m;
      t -= s.dwell;
    }
    return pos_m + cruise_mps * t.to_seconds();
  }

  /// Every arrival and departure instant in the first lap, lap boundaries
  /// over a few laps, and one microsecond either side of each.
  std::vector<Time> boundaries() const {
    std::vector<Time> at{Time::zero()};
    Time t = Time::zero();
    double pos_m = 0.0;
    for (const auto& s : stops) {
      t += Time::seconds((s.at_distance_m - pos_m) / cruise_mps);
      at.push_back(t);
      t += s.dwell;
      at.push_back(t);
      pos_m = s.at_distance_m;
    }
    for (int k = 1; k <= 4; ++k) at.push_back(lap * static_cast<double>(k));
    std::vector<Time> out;
    for (const Time b : at)
      for (const Time shift : {b - phase, b - phase + lap * 2.0})
        for (const std::int64_t us : {-1, 0, 1}) {
          const Time x = shift + Time::micros(us);
          if (!x.is_negative()) out.push_back(x);
        }
    return out;
  }
};

void expect_bus_matches(const ReferenceBus& ref,
                        const mobility::BusMobility& bus, Rng& rng,
                        const char* what) {
  ASSERT_EQ(bus.lap_time(), ref.lap) << what;
  std::vector<Time> times = ref.boundaries();
  for (int i = 0; i < 300; ++i)
    times.push_back(Time::micros(
        rng.uniform_int(0, (ref.lap * 5.0).to_micros())));
  for (const Time t : times) {
    const Vec2 want = ref.at(t);
    const Vec2 got = bus.position_at(t);
    ASSERT_TRUE(same_bits(got, want))
        << what << " at " << t.to_micros() << " us: got (" << got.x << ", "
        << got.y << ") want (" << want.x << ", " << want.y << ")";
  }
}

TEST(PathProps, BusLapAndDwellBoundariesMatchTheLegWalk) {
  Rng rng(1618);
  for (int trial = 0; trial < 60; ++trial) {
    const std::vector<Vec2> w = random_waypoints(rng);
    const ReferencePath ref_path(w, true);
    const double len = ref_path.cumulative.back();
    std::vector<mobility::BusMobility::Stop> stops;
    const auto n_stops = rng.uniform_int(0, 7);
    for (std::int64_t i = 0; i < n_stops; ++i) {
      // Stops at the lap start, the lap end and on waypoints, now and then.
      const double roll = rng.uniform01();
      const double at =
          roll < 0.1   ? 0.0
          : roll < 0.2 ? len
          : roll < 0.4 ? ref_path.cumulative[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<std::int64_t>(
                                                    ref_path.cumulative.size() - 1)))]
                       : rng.uniform(0.0, len);
      const Time dwell = rng.bernoulli(0.2)
                             ? Time::zero()
                             : Time::micros(rng.uniform_int(1, 30'000'000));
      stops.push_back({at, dwell});
    }
    const double cruise = rng.uniform(2.0, 20.0);
    std::vector<mobility::BusMobility::Stop> sorted = stops;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.at_distance_m < b.at_distance_m;
    });
    Time dwell_total = Time::zero();
    for (const auto& s : sorted) dwell_total += s.dwell;
    const Time lap = Time::seconds(len / cruise) + dwell_total;
    const Time phase = Time::micros(rng.uniform_int(0, lap.to_micros()));
    const ReferenceBus ref{ref_path, cruise, sorted, phase, lap};
    const mobility::BusMobility bus(mobility::WaypointPath(w, true), cruise,
                                    stops, phase);
    expect_bus_matches(ref, bus, rng, "random route");
  }
  // The DieselNet route itself, at a few fleet phases.
  const mobility::Layout layout = mobility::dieselnet_layout(1);
  const ReferencePath ref_path(layout.route_waypoints, true);
  const Time lap = mobility::route_cycle_time(layout);
  for (const double phase : {0.0, 1.0 / 3.0, 2.0 / 3.0}) {
    const ReferenceBus ref{ref_path, layout.cruise_mps, layout.stops,
                           lap * phase, lap};
    const mobility::BusMobility bus(
        mobility::WaypointPath(layout.route_waypoints, true),
        layout.cruise_mps, layout.stops, lap * phase);
    expect_bus_matches(ref, bus, rng, "DieselNet route");
  }
}

// ---------------------------------------------------------------------------
// Slot masks
// ---------------------------------------------------------------------------

/// A trip with \p n_bs BS entries (now and then a repeated id, an id of
/// 2^16 or more) whose slots hear listed BSes and ids the trip does not
/// list (including invalid ones).
trace::MeasurementTrace random_trip(Rng& rng, int n_bs) {
  trace::MeasurementTrace t;
  t.duration = Time::seconds(static_cast<double>(rng.uniform_int(1, 6)));
  for (int k = 0; k < n_bs; ++k) {
    const double roll = rng.uniform01();
    if (roll < 0.05 && !t.bs_ids.empty()) {
      t.bs_ids.push_back(t.bs_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(t.bs_ids.size()) - 1))]);
    } else if (roll < 0.1) {
      t.bs_ids.push_back(NodeId(static_cast<int>(rng.uniform_int(65536, 1 << 30))));
    } else {
      t.bs_ids.push_back(NodeId(static_cast<int>(rng.uniform_int(0, 3 * n_bs + 4))));
    }
  }
  const auto heard = [&](std::vector<NodeId>& list) {
    const auto n = rng.uniform_int(0, 6);
    for (std::int64_t i = 0; i < n; ++i) {
      const double roll = rng.uniform01();
      if (roll < 0.7 && !t.bs_ids.empty())
        list.push_back(t.bs_ids[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(t.bs_ids.size()) - 1))]);
      else if (roll < 0.8)
        list.push_back(NodeId{});
      else
        list.push_back(NodeId(static_cast<int>(rng.uniform_int(0, 1 << 20))));
    }
  };
  const auto slots = rng.uniform_int(0, t.seconds() * 10 + 3);
  for (std::int64_t i = 0; i < slots; ++i) {
    trace::ProbeSlot s;
    s.t = Time::millis(100.0 * static_cast<double>(i));
    heard(s.down_heard);
    heard(s.up_heard_by);
    t.slots.push_back(std::move(s));
  }
  return t;
}

const int kBsCounts[] = {0, 1, 5, 11, 63, 64, 65, 100};

TEST(SlotMaskProps, AgreeWithTheSlotListsOnAnyTrip) {
  Rng rng(6402);
  for (int trial = 0; trial < 120; ++trial) {
    const int n_bs = kBsCounts[trial % std::size(kBsCounts)];
    const trace::MeasurementTrace trip = random_trip(rng, n_bs);
    const trace::SlotMasks masks(trip);
    // Queries: every listed id, every heard id, and ids nobody lists.
    std::vector<NodeId> queries = trip.bs_ids;
    for (const auto& s : trip.slots) {
      queries.insert(queries.end(), s.down_heard.begin(), s.down_heard.end());
      queries.insert(queries.end(), s.up_heard_by.begin(), s.up_heard_by.end());
    }
    queries.push_back(NodeId{});
    queries.push_back(NodeId(1 << 29));
    for (const NodeId q : queries) {
      const auto first = std::find(trip.bs_ids.begin(), trip.bs_ids.end(), q);
      const int want_pos = first == trip.bs_ids.end()
                               ? -1
                               : static_cast<int>(first - trip.bs_ids.begin());
      ASSERT_EQ(masks.position(q), want_pos) << "trial " << trial;
      ASSERT_EQ(masks.bit(q) != 0, want_pos >= 0 && want_pos < 64);
      for (std::size_t i = 0; i < trip.slots.size(); ++i) {
        ASSERT_EQ(masks.down(i, q), trip.slots[i].down_from(q))
            << "trial " << trial << " slot " << i << " id " << q.value();
        ASSERT_EQ(masks.up(i, q), trip.slots[i].up_to(q))
            << "trial " << trial << " slot " << i << " id " << q.value();
      }
    }
  }
}

/// §3.1.6 AllBSes by scans of the slot lists: per second, the union over
/// the allowed BSes (all, or the max_bs best of that second).
std::vector<handoff::SlotOutcome> reference_allbses(
    const trace::MeasurementTrace& trip, int max_bs) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  std::vector<std::vector<NodeId>> allowed(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    if (max_bs < 0) {
      allowed[s] = trip.bs_ids;
      continue;
    }
    std::vector<std::pair<int, NodeId>> scored;
    for (const NodeId bs : trip.bs_ids) {
      int score = 0;
      for (std::size_t i = s * 10; i < std::min(trip.slots.size(), (s + 1) * 10);
           ++i)
        score += (trip.slots[i].down_from(bs) ? 1 : 0) +
                 (trip.slots[i].up_to(bs) ? 1 : 0);
      scored.emplace_back(score, bs);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (int k = 0; k < std::min<int>(max_bs, static_cast<int>(scored.size()));
         ++k)
      allowed[s].push_back(scored[static_cast<std::size_t>(k)].second);
  }
  std::vector<handoff::SlotOutcome> out(trip.slots.size());
  for (std::size_t i = 0; i < trip.slots.size(); ++i) {
    const std::size_t s = std::min(
        static_cast<std::size_t>(trip.slots[i].t.to_micros() / 1'000'000),
        secs - 1);
    for (const NodeId bs : allowed[s]) {
      out[i].up = out[i].up || trip.slots[i].up_to(bs);
      out[i].down = out[i].down || trip.slots[i].down_from(bs);
    }
  }
  return out;
}

/// BestBS by scans: per second, the first listed BS with the most two-way
/// probe successes in that second.
std::vector<NodeId> reference_best_bs(const trace::MeasurementTrace& trip) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    int best_score = -1;
    for (const NodeId bs : trip.bs_ids) {
      int score = 0;
      for (std::size_t i = s * 10; i < std::min(trip.slots.size(), (s + 1) * 10);
           ++i)
        score += (trip.slots[i].down_from(bs) ? 1 : 0) +
                 (trip.slots[i].up_to(bs) ? 1 : 0);
      if (score > best_score) {
        best_score = score;
        choices[s] = bs;
      }
    }
  }
  return choices;
}

TEST(SlotMaskProps, MaskedReplaysMatchTheListScans) {
  Rng rng(3101);
  for (int trial = 0; trial < 80; ++trial) {
    const int n_bs = kBsCounts[trial % std::size(kBsCounts)];
    const trace::MeasurementTrace trip = random_trip(rng, n_bs);
    const trace::SlotMasks masks(trip);
    for (const int max_bs : {-1, 0, 1, 2, 3, 70}) {
      const auto got = handoff::replay_allbses(trip, masks, max_bs);
      const auto want = reference_allbses(trip, max_bs);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].up, want[i].up) << "trial " << trial << " k " << max_bs;
        ASSERT_EQ(got[i].down, want[i].down)
            << "trial " << trial << " k " << max_bs;
      }
    }
    handoff::BestBsPolicy best;
    EXPECT_EQ(best.choose(trip, masks), reference_best_bs(trip))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Policies: flat per-position tables against the NodeId-keyed maps
// ---------------------------------------------------------------------------

/// The reference RSSI / BRR / Sticky / History choices: per-second beacon
/// tables in maps (counts from trace::beacon_counts_per_second), per-BS
/// state in maps keyed by NodeId, slot membership by list scans.
struct ReferencePolicies {
  using Rows = std::map<NodeId, std::vector<std::pair<bool, double>>>;

  /// Per listed BS and trip second: whether a beacon was heard, and the
  /// mean RSSI of that second's beacons, summed in beacon order.
  static Rows rssi_rows(const trace::MeasurementTrace& trip) {
    std::map<NodeId, std::map<int, std::pair<int, double>>> acc;
    for (const trace::BeaconObs& b : trip.vehicle_beacons) {
      auto& [n, sum] = acc[b.bs][static_cast<int>(b.t.to_micros() / 1'000'000)];
      ++n;
      sum += b.rssi_dbm;
    }
    Rows rows;
    const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
    for (const NodeId bs : trip.bs_ids) rows[bs].assign(secs, {false, 0.0});
    for (const auto& [bs, per_sec] : acc) {
      auto it = rows.find(bs);
      if (it == rows.end()) continue;
      for (const auto& [sec, a] : per_sec)
        if (sec >= 0 && static_cast<std::size_t>(sec) < it->second.size())
          it->second[static_cast<std::size_t>(sec)] = {
              true, a.second / static_cast<double>(a.first)};
    }
    return rows;
  }

  static std::vector<NodeId> rssi(const trace::MeasurementTrace& trip) {
    const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
    const Rows rows = rssi_rows(trip);
    std::map<NodeId, Ewma> avg;
    std::map<NodeId, int> last_heard;
    for (const NodeId bs : trip.bs_ids) avg.emplace(bs, Ewma(0.5));
    std::vector<NodeId> choices(secs);
    for (std::size_t s = 0; s < secs; ++s) {
      double best_rssi = -1e9;
      for (const NodeId bs : trip.bs_ids) {
        const auto lh = last_heard.find(bs);
        if (lh == last_heard.end() || static_cast<int>(s) - lh->second > 5)
          continue;
        const Ewma& e = avg.at(bs);
        if (e.initialized() && e.value() > best_rssi) {
          best_rssi = e.value();
          choices[s] = bs;
        }
      }
      for (const NodeId bs : trip.bs_ids) {
        const auto& [has, value] = rows.at(bs)[s];
        if (has) {
          avg.at(bs).update(value);
          last_heard[bs] = static_cast<int>(s);
        }
      }
    }
    return choices;
  }

  static std::vector<NodeId> brr(const trace::MeasurementTrace& trip) {
    const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
    const auto counts = trace::beacon_counts_per_second(trip);
    std::map<NodeId, Ewma> ratio;
    std::map<NodeId, bool> seen;
    for (const NodeId bs : trip.bs_ids) ratio.emplace(bs, Ewma(0.5));
    std::vector<NodeId> choices(secs);
    for (std::size_t s = 0; s < secs; ++s) {
      double best_ratio = 0.0;
      for (const NodeId bs : trip.bs_ids) {
        if (!seen[bs]) continue;
        const Ewma& e = ratio.at(bs);
        if (e.initialized() && e.value() > best_ratio) {
          best_ratio = e.value();
          choices[s] = bs;
        }
      }
      for (const NodeId bs : trip.bs_ids) {
        const int c = counts.at(bs)[s];
        if (c > 0) seen[bs] = true;
        if (seen[bs])
          ratio.at(bs).update(
              std::min(1.0, static_cast<double>(c) / trip.beacons_per_second));
      }
    }
    return choices;
  }

  static std::vector<NodeId> sticky(const trace::MeasurementTrace& trip) {
    const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
    const auto counts = trace::beacon_counts_per_second(trip);
    const Rows rows = rssi_rows(trip);
    const auto strongest_before = [&](std::size_t s) {
      NodeId best{};
      double best_rssi = -1e9;
      if (s == 0) return best;
      for (const NodeId bs : trip.bs_ids) {
        const auto& [has, value] = rows.at(bs)[s - 1];
        if (has && value > best_rssi) {
          best_rssi = value;
          best = bs;
        }
      }
      return best;
    };
    std::vector<NodeId> choices(secs);
    NodeId current{};
    int silent_for = 0;
    for (std::size_t s = 0; s < secs; ++s) {
      if (!current.valid()) {
        current = strongest_before(s);
        silent_for = 0;
      } else if (silent_for >= 3) {
        const NodeId next = strongest_before(s);
        if (next.valid()) {
          current = next;
          silent_for = 0;
        }
      }
      choices[s] = current;
      if (current.valid())
        silent_for = counts.at(current)[s] > 0 ? 0 : silent_for + 1;
    }
    return choices;
  }

  static std::vector<NodeId> history(const trace::Campaign& campaign,
                                     const trace::MeasurementTrace& trip) {
    using Key = std::pair<mobility::GridCell, NodeId>;
    std::map<Key, std::pair<double, int>> table;
    for (const auto* t : campaign.trips_on_day(trip.day - 1))
      for (const auto& slot : t->slots) {
        const auto cell = mobility::grid_cell(slot.vehicle_pos, 25.0);
        for (const NodeId bs : t->bs_ids) {
          auto& [sum, n] = table[{cell, bs}];
          sum += (slot.down_from(bs) ? 1.0 : 0.0) + (slot.up_to(bs) ? 1.0 : 0.0);
          ++n;
        }
      }
    const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
    const auto counts = trace::beacon_counts_per_second(trip);
    std::vector<NodeId> choices(secs);
    for (std::size_t s = 0; s < secs; ++s) {
      NodeId chosen{};
      if (trip.day > 0 && s * 10 < trip.slots.size()) {
        const auto cell =
            mobility::grid_cell(trip.slots[s * 10].vehicle_pos, 25.0);
        double best_score = 0.0;
        for (const NodeId bs : trip.bs_ids) {
          const auto it = table.find({cell, bs});
          if (it == table.end() || it->second.second == 0) continue;
          const double score = it->second.first / it->second.second;
          if (score > best_score) {
            best_score = score;
            chosen = bs;
          }
        }
      }
      if (!chosen.valid() && s > 0) {
        int best_count = 0;
        for (const NodeId bs : trip.bs_ids) {
          const int c = counts.at(bs)[s - 1];
          if (c > best_count) {
            best_count = c;
            chosen = bs;
          }
        }
      }
      choices[s] = chosen;
    }
    return choices;
  }
};

/// random_trip plus beacons: from listed and unlisted BSes, at instants
/// from before the trip start to past its end, and positions on a small
/// grid so History's cells repeat across days.
trace::MeasurementTrace random_beacon_trip(Rng& rng, int n_bs, int day) {
  trace::MeasurementTrace t = random_trip(rng, n_bs);
  t.day = day;
  t.beacons_per_second = static_cast<int>(rng.uniform_int(1, 12));
  for (auto& slot : t.slots)
    slot.vehicle_pos = {25.0 * static_cast<double>(rng.uniform_int(0, 3)),
                        25.0 * static_cast<double>(rng.uniform_int(0, 2))};
  const auto n = rng.uniform_int(0, 20 * t.seconds());
  for (std::int64_t i = 0; i < n; ++i) {
    trace::BeaconObs b;
    b.t = Time::micros(rng.uniform_int(-2'000'000, t.duration.to_micros() +
                                                       2'000'000));
    b.bs = !t.bs_ids.empty() && rng.bernoulli(0.85)
               ? t.bs_ids[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(t.bs_ids.size()) - 1))]
               : NodeId(static_cast<int>(rng.uniform_int(0, 1 << 17)));
    b.rssi_dbm = rng.uniform(-95.0, -40.0);
    t.vehicle_beacons.push_back(b);
  }
  std::sort(t.vehicle_beacons.begin(), t.vehicle_beacons.end(),
            [](const auto& a, const auto& b) { return a.t < b.t; });
  return t;
}

TEST(PolicyProps, FlatTablesChooseWhatTheMapsChose) {
  Rng rng(2525);
  for (int trial = 0; trial < 60; ++trial) {
    const int n_bs = kBsCounts[trial % std::size(kBsCounts)];
    trace::Campaign campaign;
    for (int day = 0; day < 2; ++day)
      for (int k = 0; k < 2; ++k)
        campaign.trips.push_back(random_beacon_trip(rng, n_bs, day));
    const handoff::HistoryTables tables(campaign);
    for (const auto& trip : campaign.trips) {
      const trace::SlotMasks heard(trip);
      handoff::RssiPolicy rssi;
      handoff::BrrPolicy brr;
      handoff::StickyPolicy sticky;
      handoff::HistoryPolicy history(tables);
      EXPECT_EQ(rssi.choose(trip, heard), ReferencePolicies::rssi(trip))
          << "trial " << trial;
      EXPECT_EQ(brr.choose(trip, heard), ReferencePolicies::brr(trip))
          << "trial " << trial;
      EXPECT_EQ(sticky.choose(trip, heard), ReferencePolicies::sticky(trip))
          << "trial " << trial;
      EXPECT_EQ(history.choose(trip, heard),
                ReferencePolicies::history(campaign, trip))
          << "trial " << trial << " day " << trip.day;
    }
  }
}

}  // namespace
}  // namespace vifi
