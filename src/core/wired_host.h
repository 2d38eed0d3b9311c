#pragma once

/// \file wired_host.h
/// The wired correspondent host / gateway. Downstream packets are routed to
/// the vehicle's *currently registered* anchor (anchors register when the
/// vehicle's beacons designate them, §4.3); packets in flight to a previous
/// anchor are the ones salvaging rescues (§4.5). Upstream packets arriving
/// from any anchor are delivered once, to the handler registered for the
/// packet's source vehicle.

#include <functional>

#include "core/id_set.h"
#include "core/stats.h"
#include "net/backplane.h"
#include "net/packet.h"
#include "sim/ids.h"
#include "util/flat_map.h"

namespace vifi::core {

class WiredHost {
 public:
  WiredHost(net::Backplane& backplane, NodeId self, VifiStats* stats);

  WiredHost(const WiredHost&) = delete;
  WiredHost& operator=(const WiredHost&) = delete;

  NodeId self() const { return self_; }

  /// Sends a downstream packet toward the vehicle (packet.dst). Dropped
  /// (and counted) if no anchor has registered for that vehicle yet.
  void send_down(net::PacketRef packet);

  /// Unique upstream deliveries originating from one vehicle: one handler
  /// per vehicle, and registering again replaces it. A vehicle without a
  /// handler still counts its deliveries in the stats.
  void set_delivery_handler(NodeId vehicle,
                            std::function<void(const net::PacketRef&)> fn);

  /// The anchor currently registered for a vehicle (invalid if none).
  NodeId registered_anchor(NodeId vehicle) const;

  std::uint64_t undeliverable() const { return undeliverable_; }

 private:
  void on_wire(const net::WireMessage& msg);

  net::Backplane& backplane_;
  NodeId self_;
  VifiStats* stats_;
  FlatMap<NodeId, NodeId> anchor_of_;  // vehicle -> registered anchor
  RecentIdSet delivered_;
  FlatMap<NodeId, std::function<void(const net::PacketRef&)>>
      deliver_per_vehicle_;  // keyed by packet source vehicle
  std::uint64_t undeliverable_ = 0;
};

}  // namespace vifi::core
