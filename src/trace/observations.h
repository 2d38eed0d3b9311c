#pragma once

/// \file observations.h
/// Measurement-study records: what the testbed vehicles log (§2, §3.1).
/// A `MeasurementTrace` is one *trip* of the vehicle through the coverage
/// region; campaigns aggregate trips across days.

#include <map>
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

/// Outcome of one 100 ms probe slot (§3.1: every node broadcasts a 500-byte
/// packet at 1 Mbps every 100 ms; receivers log what they decode).
struct ProbeSlot {
  Time t;                               ///< Slot start.
  mobility::Vec2 vehicle_pos;           ///< GPS fix for the slot.
  std::vector<NodeId> down_heard;       ///< BS probes the vehicle decoded.
  std::vector<NodeId> up_heard_by;      ///< BSes that decoded the vehicle's probe.

  bool down_from(NodeId bs) const;
  bool up_to(NodeId bs) const;
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
  std::vector<ProbeSlot> slots;          ///< 10 per second; may be empty for
                                         ///< beacon-only (DieselNet) traces.
  std::vector<BeaconObs> vehicle_beacons;  ///< BS beacons heard by vehicle.
  std::vector<BsBeaconObs> bs_beacons;     ///< VanLAN only.

  int seconds() const {
    return static_cast<int>(duration.to_seconds() + 0.5);
  }
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
