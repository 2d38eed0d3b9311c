#include "trace/slot_masks.h"

#include <algorithm>

namespace vifi::trace {

SlotMasks::SlotMasks(const MeasurementTrace& trip)
    : trip_(trip), down_(trip.slots.size(), 0), up_(trip.slots.size(), 0) {
  for (std::size_t k = 0; k < trip.bs_ids.size(); ++k) {
    const int id = trip.bs_ids[k].value();
    if (id < 0 || id >= kDenseIds) continue;
    const auto i = static_cast<std::size_t>(id);
    if (i >= position_.size()) position_.resize(i + 1, -1);
    if (position_[i] < 0) position_[i] = static_cast<int>(k);
  }
  for (std::size_t i = 0; i < trip.slots.size(); ++i) {
    for (const NodeId bs : trip.slots[i].down_heard) down_[i] |= bit(bs);
    for (const NodeId bs : trip.slots[i].up_heard_by) up_[i] |= bit(bs);
  }
}

int SlotMasks::scan_position(NodeId bs) const {
  const auto it = std::find(trip_.bs_ids.begin(), trip_.bs_ids.end(), bs);
  return it == trip_.bs_ids.end()
             ? -1
             : static_cast<int>(it - trip_.bs_ids.begin());
}

int SlotMasks::successes(std::size_t first, std::size_t last,
                         NodeId bs) const {
  last = std::min(last, down_.size());
  int n = 0;
  const std::uint64_t b = bit(bs);
  if (b != 0) {
    for (std::size_t i = first; i < last; ++i)
      n += ((down_[i] & b) != 0 ? 1 : 0) + ((up_[i] & b) != 0 ? 1 : 0);
    return n;
  }
  for (std::size_t i = first; i < last; ++i)
    n += (trip_.slots[i].down_from(bs) ? 1 : 0) +
         (trip_.slots[i].up_to(bs) ? 1 : 0);
  return n;
}

}  // namespace vifi::trace
