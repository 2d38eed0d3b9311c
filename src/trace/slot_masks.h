#pragma once

/// \file slot_masks.h
/// Which BSes each probe slot of a trip heard, as bits over the trip's
/// `bs_ids` order, built in one pass over the trip. The §3.1 replay asks
/// "did slot i hear BS b?" once per BS, per slot and per policy; the lists
/// in ProbeSlot answer it by a scan, the masks by one bit test.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/observations.h"

namespace vifi::trace {

/// Slot membership of one trip, answering exactly what
/// ProbeSlot::down_from / up_to answer. A BS's position is its first
/// position in `bs_ids`; positions 0..63 have a bit. Any other id (a BS
/// past the 64th, or an id the trip does not list) is answered from the
/// slot's lists, so the answers hold for every trip. The trip must outlive
/// the masks and stay unchanged.
class SlotMasks {
 public:
  static constexpr std::size_t kBits = 64;

  explicit SlotMasks(const MeasurementTrace& trip);

  /// First position of \p bs in `bs_ids`, or -1 if it is not listed.
  int position(NodeId bs) const {
    const int id = bs.value();
    if (id < 0 || id >= kDenseIds) return scan_position(bs);
    const auto i = static_cast<std::size_t>(id);
    return i < position_.size() ? position_[i] : -1;
  }
  /// The bit of \p bs in the masks, or 0 where the lists answer for it.
  std::uint64_t bit(NodeId bs) const {
    const int k = position(bs);
    return k >= 0 && static_cast<std::size_t>(k) < kBits
               ? std::uint64_t{1} << k
               : 0;
  }

  /// The bits of the BSes whose probe slot \p slot decoded / that decoded
  /// the vehicle's probe in slot \p slot.
  std::uint64_t down_bits(std::size_t slot) const { return down_[slot]; }
  std::uint64_t up_bits(std::size_t slot) const { return up_[slot]; }

  /// trip.slots[slot].down_from(bs) / up_to(bs).
  bool down(std::size_t slot, NodeId bs) const {
    const std::uint64_t b = bit(bs);
    return b != 0 ? (down_[slot] & b) != 0 : trip_.slots[slot].down_from(bs);
  }
  bool up(std::size_t slot, NodeId bs) const {
    const std::uint64_t b = bit(bs);
    return b != 0 ? (up_[slot] & b) != 0 : trip_.slots[slot].up_to(bs);
  }

  /// Two-way probe successes of \p bs over slots [first, last) (clamped
  /// to the trip): the slots that heard it plus the slots it heard.
  int successes(std::size_t first, std::size_t last, NodeId bs) const;

 private:
  int scan_position(NodeId bs) const;

  /// Ids at or above this are looked up by a scan of `bs_ids`, so a trip
  /// naming a huge id costs no huge table.
  static constexpr int kDenseIds = 1 << 16;

  const MeasurementTrace& trip_;
  std::vector<int> position_;  ///< By id value below kDenseIds; -1 = none.
  std::vector<std::uint64_t> down_;
  std::vector<std::uint64_t> up_;
};

}  // namespace vifi::trace
