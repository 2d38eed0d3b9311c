#include "handoff/policies.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/ewma.h"

namespace vifi::handoff {

namespace {

std::size_t trip_seconds(const MeasurementTrace& trip) {
  return static_cast<std::size_t>(std::max(1, trip.seconds()));
}

/// The BS position (SlotMasks::position) of each entry of trip.bs_ids.
std::vector<int> bs_positions(const MeasurementTrace& trip,
                              const SlotMasks& heard) {
  std::vector<int> pos;
  pos.reserve(trip.bs_ids.size());
  for (const NodeId bs : trip.bs_ids) pos.push_back(heard.position(bs));
  return pos;
}

/// Per-second vehicle-side beacon counts and RSSI sums of a trip's BSes,
/// flat by BS position, so a BS listed twice reads one row. Like
/// trace::beacon_counts_per_second, it keeps only listed BSes and seconds
/// in [0, trip seconds); each cell's RSSI is summed in beacon order.
class BeaconTable {
 public:
  BeaconTable(const MeasurementTrace& trip, const SlotMasks& heard)
      : secs_(trip_seconds(trip)),
        count_(trip.bs_ids.size() * secs_, 0),
        rssi_sum_(count_.size(), 0.0) {
    for (const trace::BeaconObs& b : trip.vehicle_beacons) {
      const std::int64_t s = b.t.to_micros() / 1'000'000;
      const int k = heard.position(b.bs);
      if (k < 0 || s < 0 || static_cast<std::uint64_t>(s) >= secs_) continue;
      const std::size_t i = cell(k, static_cast<std::size_t>(s));
      ++count_[i];
      rssi_sum_[i] += b.rssi_dbm;
    }
  }

  /// Beacons decoded from the BS at position \p k during second \p s.
  int count(int k, std::size_t s) const { return count_[cell(k, s)]; }
  /// Their mean RSSI; only where count(k, s) > 0.
  double mean_rssi(int k, std::size_t s) const {
    const std::size_t i = cell(k, s);
    return rssi_sum_[i] / static_cast<double>(count_[i]);
  }

 private:
  std::size_t cell(int k, std::size_t s) const {
    return static_cast<std::size_t>(k) * secs_ + s;
  }

  std::size_t secs_;
  std::vector<int> count_;
  std::vector<double> rssi_sum_;
};

/// One Ewma per BS position.
std::vector<Ewma> ewmas(std::size_t n, double alpha) {
  std::vector<Ewma> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) out.emplace_back(alpha);
  return out;
}

}  // namespace

std::vector<NodeId> RssiPolicy::choose(const MeasurementTrace& trip,
                                       const SlotMasks& heard) {
  const std::size_t secs = trip_seconds(trip);
  const BeaconTable beacons(trip, heard);
  const std::vector<int> pos = bs_positions(trip, heard);
  std::vector<Ewma> avg = ewmas(pos.size(), alpha_);
  std::vector<int> last_heard(pos.size(), -1);  // -1: never heard

  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    // Decide for second s using data from seconds < s.
    NodeId best{};
    double best_rssi = -1e9;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      const int lh = last_heard[static_cast<std::size_t>(pos[j])];
      if (lh < 0 || static_cast<int>(s) - lh > staleness_s_) continue;
      const Ewma& e = avg[static_cast<std::size_t>(pos[j])];
      if (e.initialized() && e.value() > best_rssi) {
        best_rssi = e.value();
        best = trip.bs_ids[j];
      }
    }
    choices[s] = best;
    // Fold in second-s observations for future decisions.
    for (const int k : pos) {
      if (beacons.count(k, s) > 0) {
        avg[static_cast<std::size_t>(k)].update(beacons.mean_rssi(k, s));
        last_heard[static_cast<std::size_t>(k)] = static_cast<int>(s);
      }
    }
  }
  return choices;
}

std::vector<NodeId> BrrPolicy::choose(const MeasurementTrace& trip,
                                      const SlotMasks& heard) {
  const std::size_t secs = trip_seconds(trip);
  const BeaconTable beacons(trip, heard);
  const std::vector<int> pos = bs_positions(trip, heard);
  std::vector<Ewma> ratio = ewmas(pos.size(), alpha_);
  std::vector<char> seen(pos.size(), 0);

  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    NodeId best{};
    double best_ratio = 0.0;  // require strictly positive estimate
    for (std::size_t j = 0; j < pos.size(); ++j) {
      const auto k = static_cast<std::size_t>(pos[j]);
      if (!seen[k]) continue;
      const Ewma& e = ratio[k];
      if (e.initialized() && e.value() > best_ratio) {
        best_ratio = e.value();
        best = trip.bs_ids[j];
      }
    }
    choices[s] = best;
    for (const int k : pos) {
      const int c = beacons.count(k, s);
      const auto i = static_cast<std::size_t>(k);
      if (c > 0) seen[i] = 1;
      // Once a BS has been seen, zero-count seconds drive its average down
      // (self-ageing); unseen BSes are not updated to avoid phantom zeros.
      if (seen[i])
        ratio[i].update(
            std::min(1.0, static_cast<double>(c) / trip.beacons_per_second));
    }
  }
  return choices;
}

std::vector<NodeId> StickyPolicy::choose(const MeasurementTrace& trip,
                                         const SlotMasks& heard) {
  const std::size_t secs = trip_seconds(trip);
  const BeaconTable beacons(trip, heard);
  const std::vector<int> pos = bs_positions(trip, heard);

  auto last_second_rssi_best = [&](std::size_t s) {
    NodeId best{};
    double best_rssi = -1e9;
    if (s == 0) return best;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (beacons.count(pos[j], s - 1) > 0 &&
          beacons.mean_rssi(pos[j], s - 1) > best_rssi) {
        best_rssi = beacons.mean_rssi(pos[j], s - 1);
        best = trip.bs_ids[j];
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
      const int c = beacons.count(heard.position(current), s);
      silent_for = c > 0 ? 0 : silent_for + 1;
    }
  }
  return choices;
}

HistoryTables::HistoryTables(const trace::Campaign& campaign,
                             double cell_size_m)
    : campaign_(campaign), cell_size_m_(cell_size_m) {
  VIFI_EXPECTS(cell_size_m > 0.0);
  int days = 0;
  for (const MeasurementTrace& t : campaign.trips)
    days = std::max(days, t.day + 1);
  built_ = std::vector<std::once_flag>(static_cast<std::size_t>(days));
  tables_.resize(static_cast<std::size_t>(days));
}

const HistoryTables::DayTable& HistoryTables::day(int day) const {
  static const DayTable kEmpty;
  if (day < 0 || static_cast<std::size_t>(day) >= tables_.size())
    return kEmpty;
  const auto d = static_cast<std::size_t>(day);
  std::call_once(built_[d], [&] {
    DayTable& table = tables_[d];
    for (const auto* trip : campaign_.trips_on_day(day)) {
      const SlotMasks heard(*trip);
      for (std::size_t i = 0; i < trip->slots.size(); ++i) {
        const auto cell =
            mobility::grid_cell(trip->slots[i].vehicle_pos, cell_size_m_);
        for (NodeId bs : trip->bs_ids) {
          auto& sc = table[{cell, bs}];
          sc.sum += heard.successes(i, i + 1, bs);
          ++sc.n;
        }
      }
    }
  });
  return tables_[d];
}

std::vector<NodeId> HistoryPolicy::choose(const MeasurementTrace& trip,
                                          const SlotMasks& heard) {
  const std::size_t secs = trip_seconds(trip);
  const BeaconTable beacons(trip, heard);
  const std::vector<int> pos = bs_positions(trip, heard);
  const HistoryTables::DayTable* history =
      trip.day > 0 ? &tables_->day(trip.day - 1) : nullptr;

  // Fallback: the BS with the highest beacon count in the previous second.
  auto fallback = [&](std::size_t s) {
    NodeId best{};
    int best_count = 0;
    if (s == 0) return best;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      const int c = beacons.count(pos[j], s - 1);
      if (c > best_count) {
        best_count = c;
        best = trip.bs_ids[j];
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
            trip.slots[slot_index].vehicle_pos, tables_->cell_size_m());
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

std::vector<NodeId> BestBsPolicy::choose(const MeasurementTrace& trip,
                                         const SlotMasks& heard) {
  const std::size_t secs = trip_seconds(trip);
  std::vector<NodeId> choices(secs);
  for (std::size_t s = 0; s < secs; ++s) {
    // Count two-way probe successes within second s (the future second the
    // association will serve — BestBS has oracle knowledge, §3.1.5).
    NodeId best{};
    int best_score = -1;
    for (NodeId bs : trip.bs_ids) {
      const int score = heard.successes(s * 10, (s + 1) * 10, bs);
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
