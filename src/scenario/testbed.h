#pragma once

/// \file testbed.h
/// Binds a geometric layout to node identities, mobility, and channel
/// parameters — everything needed to instantiate channels, media and
/// protocol stacks for one of the two testbeds.
///
/// The paper's testbeds were fleets: VanLAN ran two shuttles (§2.1) and
/// DieselNet is a whole bus system. A Testbed therefore carries V >= 1
/// vehicles with per-vehicle mobility (route offsets for shuttles, stop
/// schedule phases for buses).
///
/// Node id convention: BSes are 0..n-1 (matching layout order), vehicles
/// are n..n+V-1 (matching fleet order), and the wired correspondent host is
/// n+V. Ids beyond the wired host do not exist in the testbed.

#include <memory>
#include <vector>

#include "channel/vehicular.h"
#include "mac/medium.h"
#include "mobility/layouts.h"
#include "mobility/mobility.h"
#include "sim/ids.h"

namespace vifi::scenario {

using sim::NodeId;

/// Describes the vehicle fleet a testbed runs. The default is the paper's
/// single instrumented vehicle; VanLAN itself ran two vans and DieselNet
/// variants scale to whole bus systems.
struct FleetSpec {
  int vehicles = 1;
  /// Per-vehicle phase along the route cycle, each in [0, 1): shuttles get
  /// a route offset of phase x route length, buses a time offset of
  /// phase x lap time against the shared stop schedule. Empty = spread the
  /// fleet evenly (vehicle i at phase i / V).
  std::vector<double> phases;
};

class Testbed {
 public:
  Testbed(mobility::Layout layout,
          channel::VehicularChannelParams channel_params,
          FleetSpec fleet = {});

  const mobility::Layout& layout() const { return layout_; }
  const channel::VehicularChannelParams& channel_params() const {
    return channel_params_;
  }

  const std::vector<NodeId>& bs_ids() const { return bs_ids_; }
  /// All vehicle ids, in fleet order (ids n..n+V-1).
  const std::vector<NodeId>& vehicle_ids() const { return vehicle_ids_; }
  /// The first (or only) vehicle — the paper's instrumented one.
  NodeId vehicle() const { return vehicle_ids_.front(); }
  int fleet_size() const { return static_cast<int>(vehicle_ids_.size()); }
  NodeId wired_host() const { return wired_host_; }
  bool is_vehicle(NodeId node) const;

  mobility::Vec2 bs_position(NodeId bs) const;
  /// Position of any testbed node at time \p t. Precondition: \p node is a
  /// BS, a vehicle, or the wired host of *this* testbed.
  mobility::Vec2 position(NodeId node, Time t) const;

  /// Position callback for channel models. The Testbed must outlive any
  /// channel constructed with this.
  channel::VehicularChannel::PositionFn position_fn() const;

  /// A fresh stochastic channel with every vehicle marked mobile and every
  /// BS marked fixed. Deterministic per \p rng.
  std::unique_ptr<channel::VehicularChannel> make_channel(Rng rng) const;

  /// Spatial-culling configuration for media running on this testbed:
  /// positions come from the testbed (which must outlive the medium), and
  /// the max audible range inverts the distance curve at
  /// \p audibility_threshold — a provable bound, since every stochastic
  /// multiplier the vehicular channel composes on top of the curve is
  /// <= 1. The motion margin comfortably covers the route cruise speed at
  /// the default refresh interval.
  mac::SpatialCulling make_culling(double audibility_threshold = 0.05) const;

  /// Duration of one trip (one lap of the route, including dwells).
  Time trip_duration() const;

 private:
  mobility::Layout layout_;
  channel::VehicularChannelParams channel_params_;
  std::vector<NodeId> bs_ids_;
  std::vector<NodeId> vehicle_ids_;
  NodeId wired_host_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> vehicle_mobility_;
};

/// VanLAN with its default channel calibration; \p vehicles shuttles evenly
/// out of phase around the campus loop.
Testbed make_vanlan(int vehicles = 1);

/// DieselNet (channel 1 or 6) — beacon-logging only in the paper; the
/// harsher town channel reflects obstructions and non-WiFi interference.
/// \p vehicles buses staggered on the shared stop schedule.
Testbed make_dieselnet(int channel, int vehicles = 1);

/// DieselNet variant with an explicit fleet (V buses with chosen phases) —
/// the generator for bus-system-scale contention studies.
Testbed make_dieselnet_fleet(int channel, FleetSpec fleet);

}  // namespace vifi::scenario
