#pragma once

/// \file observations.h
/// Measurement-study records: what the testbed vehicles log (§2, §3.1).
/// A `MeasurementTrace` is one *trip* of the vehicle through the coverage
/// region; campaigns aggregate trips across days.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mobility/vec2.h"
#include "sim/ids.h"
#include "util/time.h"

namespace vifi::trace {

using sim::NodeId;

/// A BS beacon decoded by the vehicle, with the measured signal strength
/// that RSSI-style handoff policies use.
struct BeaconObs {
  Time t;
  NodeId bs;
  double rssi_dbm = 0.0;
};

/// A beacon from one BS decoded by another BS (logged on VanLAN only, where
/// we control the BSes; used to configure inter-BS loss in validation).
struct BsBeaconObs {
  Time t;
  NodeId tx;
  NodeId rx;
};

/// A trip's 100 ms probe slots (§3.1: every node broadcasts a 500-byte
/// packet at 1 Mbps every 100 ms; receivers log what they decode), as
/// columns: each slot's start and GPS fix, and per direction one pool of
/// heard ids with each slot's end offset into it (compressed sparse rows)
/// plus each slot's ids as a bit mask (MeasurementTrace::slot_bit). Slots
/// are appended only by MeasurementTrace::add_slot, which builds a slot's
/// masks from its ids, so the two always agree.
class ProbeLog {
 public:
  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  void reserve(std::size_t slots);

  Time start(std::size_t i) const { return t_[i]; }  ///< Slot start.
  mobility::Vec2 pos(std::size_t i) const { return pos_[i]; }  ///< GPS fix.
  /// BS probes the vehicle decoded in slot \p i, in logged order.
  std::span<const NodeId> down_ids(std::size_t i) const {
    return down_.ids_of(i);
  }
  /// BSes that decoded the vehicle's probe in slot \p i, in logged order.
  std::span<const NodeId> up_ids(std::size_t i) const { return up_.ids_of(i); }
  /// Those ids' slot bits, or-ed.
  std::uint64_t down_bits(std::size_t i) const { return down_.bits[i]; }
  std::uint64_t up_bits(std::size_t i) const { return up_.bits[i]; }

  bool operator==(const ProbeLog&) const = default;

 private:
  friend struct MeasurementTrace;

  /// One direction's heard ids.
  struct Heard {
    std::vector<NodeId> ids;          ///< Every slot's ids, slot by slot.
    std::vector<std::size_t> end;     ///< Where slot i's ids end in `ids`.
    std::vector<std::uint64_t> bits;  ///< Slot i's ids' slot bits.

    std::span<const NodeId> ids_of(std::size_t i) const {
      const std::size_t first = i == 0 ? 0 : end[i - 1];
      return {ids.data() + first, end[i] - first};
    }
    bool operator==(const Heard&) const = default;
  };

  std::vector<Time> t_;
  std::vector<mobility::Vec2> pos_;
  Heard down_, up_;
};

/// One trip's worth of raw logs, as recorded by ONE vehicle. Fleet
/// campaigns produce one trace per vehicle per trip (all vehicles share the
/// trip's channel realisation); `vehicle` identifies the logger.
struct MeasurementTrace {
  std::string testbed;       ///< "VanLAN", "DieselNet-Ch1", ...
  int day = 0;               ///< Day index within the campaign.
  int trip = 0;              ///< Trip index within the day.
  NodeId vehicle;            ///< Logging vehicle (invalid = legacy trace).
  Time duration;             ///< Trip length.
  int beacons_per_second = 10;
  std::vector<NodeId> bs_ids;
  ProbeLog slots;            ///< 10 per second; may be empty for
                             ///< beacon-only (DieselNet) traces.
  std::vector<BeaconObs> vehicle_beacons;  ///< BS beacons heard by vehicle.
  std::vector<BsBeaconObs> bs_beacons;     ///< VanLAN only.

  int seconds() const {
    return static_cast<int>(duration.to_seconds() + 0.5);
  }

  /// Appends a probe slot starting at \p t with GPS fix \p pos: \p down
  /// lists the BSes whose probe the vehicle decoded, \p up those that
  /// decoded the vehicle's. Its masks are taken over `bs_ids`, which must
  /// not change once slots are added.
  void add_slot(Time t, mobility::Vec2 pos, std::span<const NodeId> down,
                std::span<const NodeId> up);
  /// add_slot for each slot of \p from, keeping the heard ids \p keep
  /// accepts (all when it is null).
  void add_slots(const ProbeLog& from,
                 const std::function<bool(NodeId)>& keep = nullptr);

  /// First position of \p bs in `bs_ids`, or -1 if it is not listed.
  int bs_position(NodeId bs) const;
  /// \p bs's bit in the slot masks: bit k for a first position k below
  /// 64, else 0 — a BS past the 64th, or one the trip does not list, is
  /// answered from the id pools.
  std::uint64_t slot_bit(NodeId bs) const;
  /// Whether the vehicle decoded \p bs's probe in slot \p i (down), or
  /// \p bs decoded the vehicle's (up).
  bool slot_down(std::size_t i, NodeId bs) const;
  bool slot_up(std::size_t i, NodeId bs) const;
  /// Two-way probe successes of \p bs over slots [first, last) (clamped
  /// to the trip): the slots that heard it plus the slots it heard.
  int slot_successes(std::size_t first, std::size_t last, NodeId bs) const;
};

/// Per-second beacon reception counts from one BS, vehicle side:
/// counts[s] = beacons decoded during second s.
std::map<NodeId, std::vector<int>> beacon_counts_per_second(
    const MeasurementTrace& t);

/// A whole measurement campaign: several days, several trips per day.
struct Campaign {
  std::string testbed;
  std::vector<MeasurementTrace> trips;  ///< Ordered by (day, trip).

  int days() const;
  std::vector<const MeasurementTrace*> trips_on_day(int day) const;
};

}  // namespace vifi::trace
