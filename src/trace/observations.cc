#include "trace/observations.h"

#include <algorithm>

namespace vifi::trace {

namespace {

/// Whether \p bs is among one slot direction's \p ids, whose mask is
/// \p bits, given \p bit = its slot_bit.
bool contains(std::span<const NodeId> ids, std::uint64_t bits,
              std::uint64_t bit, NodeId bs) {
  return bit != 0 ? (bits & bit) != 0 : std::ranges::find(ids, bs) != ids.end();
}

}  // namespace

void ProbeLog::reserve(std::size_t slots) {
  t_.reserve(slots);
  pos_.reserve(slots);
  for (Heard* h : {&down_, &up_}) {
    h->end.reserve(slots);
    h->bits.reserve(slots);
  }
}

void MeasurementTrace::add_slot(Time t, mobility::Vec2 pos,
                                std::span<const NodeId> down,
                                std::span<const NodeId> up) {
  const auto append = [this](ProbeLog::Heard& h, std::span<const NodeId> ids) {
    std::uint64_t bits = 0;
    for (const NodeId id : ids) bits |= slot_bit(id);
    h.ids.insert(h.ids.end(), ids.begin(), ids.end());
    h.end.push_back(h.ids.size());
    h.bits.push_back(bits);
  };
  slots.t_.push_back(t);
  slots.pos_.push_back(pos);
  append(slots.down_, down);
  append(slots.up_, up);
}

void MeasurementTrace::add_slots(const ProbeLog& from,
                                 const std::function<bool(NodeId)>& keep) {
  std::vector<NodeId> down, up;
  for (std::size_t i = 0; i < from.size(); ++i) {
    down.clear();
    up.clear();
    for (const NodeId id : from.down_ids(i))
      if (!keep || keep(id)) down.push_back(id);
    for (const NodeId id : from.up_ids(i))
      if (!keep || keep(id)) up.push_back(id);
    add_slot(from.start(i), from.pos(i), down, up);
  }
}

int MeasurementTrace::bs_position(NodeId bs) const {
  const auto it = std::ranges::find(bs_ids, bs);
  return it == bs_ids.end() ? -1 : static_cast<int>(it - bs_ids.begin());
}

std::uint64_t MeasurementTrace::slot_bit(NodeId bs) const {
  const int k = bs_position(bs);
  return k >= 0 && k < 64 ? std::uint64_t{1} << k : 0;
}

bool MeasurementTrace::slot_down(std::size_t i, NodeId bs) const {
  return contains(slots.down_ids(i), slots.down_bits(i), slot_bit(bs), bs);
}

bool MeasurementTrace::slot_up(std::size_t i, NodeId bs) const {
  return contains(slots.up_ids(i), slots.up_bits(i), slot_bit(bs), bs);
}

int MeasurementTrace::slot_successes(std::size_t first, std::size_t last,
                                     NodeId bs) const {
  const std::uint64_t bit = slot_bit(bs);
  int n = 0;
  for (std::size_t i = first; i < std::min(last, slots.size()); ++i)
    n += (contains(slots.down_ids(i), slots.down_bits(i), bit, bs) ? 1 : 0) +
         (contains(slots.up_ids(i), slots.up_bits(i), bit, bs) ? 1 : 0);
  return n;
}

std::map<NodeId, std::vector<int>> beacon_counts_per_second(
    const MeasurementTrace& t) {
  std::map<NodeId, std::vector<int>> counts;
  const auto secs = static_cast<std::size_t>(std::max(1, t.seconds()));
  for (NodeId bs : t.bs_ids) counts[bs].assign(secs, 0);
  for (const BeaconObs& b : t.vehicle_beacons) {
    const auto s = static_cast<std::size_t>(b.t.to_micros() / 1'000'000);
    if (s >= secs) continue;
    auto it = counts.find(b.bs);
    if (it == counts.end()) continue;
    ++it->second[s];
  }
  return counts;
}

int Campaign::days() const {
  int d = 0;
  for (const auto& t : trips) d = std::max(d, t.day + 1);
  return d;
}

std::vector<const MeasurementTrace*> Campaign::trips_on_day(int day) const {
  std::vector<const MeasurementTrace*> out;
  for (const auto& t : trips)
    if (t.day == day) out.push_back(&t);
  return out;
}

}  // namespace vifi::trace
