#include "handoff/policies.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/ewma.h"

namespace vifi::handoff {

namespace {

/// Per-BS, per-second mean RSSI as a dense table (NaN-free: pair of
/// has-value flag and value).
struct RssiTable {
  std::map<NodeId, std::vector<std::pair<bool, double>>> rows;

  static RssiTable build(const MeasurementTrace& trip) {
    RssiTable t;
    const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
    for (NodeId bs : trip.bs_ids)
      t.rows[bs].assign(secs, {false, 0.0});
    const auto per_bs = trace::beacon_rssi_per_second(trip);
    for (const auto& [bs, entries] : per_bs) {
      auto it = t.rows.find(bs);
      if (it == t.rows.end()) continue;
      for (const auto& [sec, avg] : entries) {
        if (sec >= 0 && static_cast<std::size_t>(sec) < it->second.size())
          it->second[static_cast<std::size_t>(sec)] = {true, avg};
      }
    }
    return t;
  }
};

}  // namespace

std::vector<NodeId> RssiPolicy::choose(const MeasurementTrace& trip) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  const RssiTable rssi = RssiTable::build(trip);
  std::map<NodeId, Ewma> avg;
  std::map<NodeId, int> last_heard;
  for (NodeId bs : trip.bs_ids) avg.emplace(bs, Ewma(alpha_));

  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    // Decide for second s using data from seconds < s.
    NodeId best{};
    double best_rssi = -1e9;
    for (NodeId bs : trip.bs_ids) {
      const auto lh = last_heard.find(bs);
      if (lh == last_heard.end() ||
          static_cast<int>(s) - lh->second > staleness_s_)
        continue;
      const Ewma& e = avg.at(bs);
      if (e.initialized() && e.value() > best_rssi) {
        best_rssi = e.value();
        best = bs;
      }
    }
    choices[s] = best;
    // Fold in second-s observations for future decisions.
    for (NodeId bs : trip.bs_ids) {
      const auto& [has, value] = rssi.rows.at(bs)[s];
      if (has) {
        avg.at(bs).update(value);
        last_heard[bs] = static_cast<int>(s);
      }
    }
  }
  return choices;
}

std::vector<NodeId> BrrPolicy::choose(const MeasurementTrace& trip) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  const auto counts = trace::beacon_counts_per_second(trip);
  std::map<NodeId, Ewma> ratio;
  std::map<NodeId, bool> seen;
  for (NodeId bs : trip.bs_ids) ratio.emplace(bs, Ewma(alpha_));

  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    NodeId best{};
    double best_ratio = 0.0;  // require strictly positive estimate
    for (NodeId bs : trip.bs_ids) {
      if (!seen[bs]) continue;
      const Ewma& e = ratio.at(bs);
      if (e.initialized() && e.value() > best_ratio) {
        best_ratio = e.value();
        best = bs;
      }
    }
    choices[s] = best;
    for (NodeId bs : trip.bs_ids) {
      const auto& row = counts.at(bs);
      const int c = s < row.size() ? row[s] : 0;
      if (c > 0) seen[bs] = true;
      // Once a BS has been seen, zero-count seconds drive its average down
      // (self-ageing); unseen BSes are not updated to avoid phantom zeros.
      if (seen[bs])
        ratio.at(bs).update(
            std::min(1.0, static_cast<double>(c) / trip.beacons_per_second));
    }
  }
  return choices;
}

std::vector<NodeId> StickyPolicy::choose(const MeasurementTrace& trip) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  const auto counts = trace::beacon_counts_per_second(trip);
  const RssiTable rssi = RssiTable::build(trip);

  auto last_second_rssi_best = [&](std::size_t s) {
    NodeId best{};
    double best_rssi = -1e9;
    if (s == 0) return best;
    for (NodeId bs : trip.bs_ids) {
      const auto& [has, value] = rssi.rows.at(bs)[s - 1];
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
      current = last_second_rssi_best(s);
      silent_for = 0;
    } else {
      const int silence_limit =
          static_cast<int>(silence_.to_seconds() + 0.5);
      if (silent_for >= silence_limit) {
        const NodeId next = last_second_rssi_best(s);
        if (next.valid()) {
          current = next;
          silent_for = 0;
        }
      }
    }
    choices[s] = current;
    // Update silence from this second's beacons.
    if (current.valid()) {
      const auto& row = counts.at(current);
      const int c = s < row.size() ? row[s] : 0;
      silent_for = c > 0 ? 0 : silent_for + 1;
    }
  }
  return choices;
}

HistoryPolicy::HistoryPolicy(const trace::Campaign& campaign,
                             double cell_size_m)
    : campaign_(campaign), cell_size_m_(cell_size_m) {
  VIFI_EXPECTS(cell_size_m > 0.0);
}

const HistoryPolicy::DayTable& HistoryPolicy::table_for_day(int day) {
  auto it = cache_.find(day);
  if (it != cache_.end()) return it->second;
  DayTable table;
  for (const auto* trip : campaign_.trips_on_day(day)) {
    for (const trace::ProbeSlot& slot : trip->slots) {
      const auto cell = mobility::grid_cell(slot.vehicle_pos, cell_size_m_);
      for (NodeId bs : trip->bs_ids) {
        auto& sc = table[{cell, bs}];
        sc.sum += (slot.down_from(bs) ? 1.0 : 0.0) +
                  (slot.up_to(bs) ? 1.0 : 0.0);
        ++sc.n;
      }
    }
  }
  return cache_.emplace(day, std::move(table)).first->second;
}

std::vector<NodeId> HistoryPolicy::choose(const MeasurementTrace& trip) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  const auto counts = trace::beacon_counts_per_second(trip);
  const DayTable* history =
      trip.day > 0 ? &table_for_day(trip.day - 1) : nullptr;

  // Fallback: the BS with the highest beacon count in the previous second.
  auto fallback = [&](std::size_t s) {
    NodeId best{};
    int best_count = 0;
    if (s == 0) return best;
    for (NodeId bs : trip.bs_ids) {
      const auto& row = counts.at(bs);
      const int c = (s - 1) < row.size() ? row[s - 1] : 0;
      if (c > best_count) {
        best_count = c;
        best = bs;
      }
    }
    return best;
  };

  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    NodeId chosen{};
    if (history != nullptr) {
      // The vehicle's position at this second (first slot of the second).
      const std::size_t slot_index = s * 10;
      if (slot_index < trip.slots.size()) {
        const auto cell = mobility::grid_cell(
            trip.slots[slot_index].vehicle_pos, cell_size_m_);
        double best_score = 0.0;
        for (NodeId bs : trip.bs_ids) {
          const auto it = history->find({cell, bs});
          if (it == history->end() || it->second.n == 0) continue;
          const double score = it->second.sum / it->second.n;
          if (score > best_score) {
            best_score = score;
            chosen = bs;
          }
        }
      }
    }
    choices[s] = chosen.valid() ? chosen : fallback(s);
  }
  return choices;
}

std::vector<NodeId> BestBsPolicy::choose(const MeasurementTrace& trip) {
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    // Count two-way probe successes within second s (the future second the
    // association will serve — BestBS has oracle knowledge, §3.1.5).
    NodeId best{};
    int best_score = -1;
    for (NodeId bs : trip.bs_ids) {
      int score = 0;
      for (std::size_t i = s * 10; i < std::min(trip.slots.size(), (s + 1) * 10);
           ++i) {
        const trace::ProbeSlot& slot = trip.slots[i];
        score += (slot.down_from(bs) ? 1 : 0) + (slot.up_to(bs) ? 1 : 0);
      }
      if (score > best_score) {
        best_score = score;
        best = bs;
      }
    }
    choices[s] = best;
  }
  return choices;
}

}  // namespace vifi::handoff
