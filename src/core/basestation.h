#pragma once

/// \file basestation.h
/// A ViFi basestation. Its behaviour towards a vehicle depends on the role
/// the *vehicle's* beacons assign to it (§4.3):
///
///   anchor    — terminates the wireless hop: its VifiReceiver acks and
///               forwards upstream data (direct or relayed over the
///               backplane) to the wired gateway; a VifiSender per vehicle
///               sources downstream data from the gateway; keeps a salvage
///               buffer and answers salvage pulls (§4.5);
///   auxiliary — opportunistically overhears data frames and, when no ACK
///               follows within a short window, probabilistically relays:
///               upstream over the backplane, downstream over the air
///               (§4.3 step 3, §4.4);
///   neither   — just beacons and maintains pab estimates.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/id_set.h"
#include "core/pab.h"
#include "core/receiver.h"
#include "core/relay_policy.h"
#include "core/sender.h"
#include "core/stats.h"
#include "mac/beaconing.h"
#include "mac/radio.h"
#include "net/backplane.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace vifi::obs {
class Histogram;
}

namespace vifi::core {

class VifiBasestation {
 public:
  VifiBasestation(sim::Simulator& sim, mac::Radio& radio,
                  net::Backplane& backplane, NodeId wired_gateway,
                  const VifiConfig& config, Rng rng, VifiStats* stats);

  VifiBasestation(const VifiBasestation&) = delete;
  VifiBasestation& operator=(const VifiBasestation&) = delete;

  NodeId self() const { return radio_.self(); }

  void start();

  /// True if this BS currently believes it anchors \p vehicle.
  bool is_anchor_for(NodeId vehicle) const;

  const PabTable& pab() const { return pab_; }
  /// The downstream sender serving \p vehicle (single-vehicle callers can
  /// pass the only vehicle id they know).
  VifiSender& sender(NodeId vehicle);

  std::uint64_t relays_sent() const { return relays_sent_; }
  std::uint64_t packets_salvaged_out() const { return salvaged_out_; }

  // --- CoordTier hooks (src/coord/). All optional std::function seams so
  // core carries no dependency on the coordination layer. ------------------

  /// Called after every decoded vehicle beacon with the designation it
  /// carried (anchor/prev_anchor may be invalid).
  void set_beacon_observer(
      std::function<void(NodeId vehicle, NodeId anchor, NodeId prev_anchor)>
          observer) {
    beacon_observer_ = std::move(observer);
  }

  /// Consulted before each auxiliary relay decision; returning true skips
  /// the relay for \p vehicle's packet (the coordination tier suppresses
  /// redundant relaying under a confident prediction).
  void set_relay_filter(std::function<bool(NodeId vehicle)> filter) {
    relay_filter_ = std::move(filter);
  }

  /// Warm state transfer ahead of a predicted handoff: creates the
  /// downstream sender serving \p vehicle now (instead of lazily on the
  /// first post-handoff packet) and — when salvage is on — pulls the
  /// current anchor's unacknowledged packets before the beacon gap.
  void prestage(NodeId vehicle, NodeId current_anchor);

 private:
  /// Vehicle-side state learned from its beacons.
  struct VehicleState {
    NodeId anchor{};
    NodeId prev_anchor{};
    std::vector<NodeId> auxiliaries;
    Time last_beacon;
    bool registered_as_anchor = false;
  };

  /// An overheard, not-yet-decided data frame (auxiliary duty): what a
  /// relay of it needs, without the frame's piggyback list.
  struct OverheardEntry {
    net::PacketRef packet;
    std::uint64_t packet_id = 0;
    std::uint64_t link_seq = 0;
    int attempt = 0;
    NodeId origin;
    NodeId hop_dst;
    Time heard_at;
    NodeId vehicle;  ///< The vehicle this packet concerns.
  };

  /// Downstream packet kept for acknowledgment tracking and salvaging.
  struct SalvageEntry {
    net::PacketRef packet;
    Time arrived;  ///< When it came in from the Internet (or via salvage).
  };

  void on_frame(const mac::Frame& f);
  void on_vehicle_beacon(const mac::Frame& f);
  void on_data(const mac::Frame& f);
  void on_wire(const net::WireMessage& msg);
  void on_second_tick();
  void on_relay_tick();
  void forward_to_gateway(const net::PacketRef& packet);
  void enqueue_downstream(const net::PacketRef& packet);
  void become_anchor(NodeId vehicle, NodeId prev_anchor);
  void beacon_payload(mac::BeaconPayload& p) const;

  /// Lazily creates the downstream sender serving \p vehicle.
  VifiSender& sender_for(NodeId vehicle);
  void pump_all();

  sim::Simulator& sim_;
  mac::Radio& radio_;
  net::Backplane& backplane_;
  NodeId gateway_;
  VifiConfig config_;
  VifiStats* stats_;
  Rng rng_;
  PabTable pab_;
  mac::Beaconing beaconing_;
  sim::PeriodicTimer second_tick_;
  sim::PeriodicTimer relay_tick_;
  sim::PeriodicTimer pump_tick_;
  /// Downstream data paths (anchor duty), one per served vehicle — VanLAN
  /// itself ran two vans (§2.1). Ascending vehicle id, the order acks are
  /// offered and pumps run in.
  FlatMap<NodeId, std::unique_ptr<VifiSender>> senders_;
  /// Upstream data path (anchor duty): one for all vehicles, window too.
  VifiReceiver receiver_;

  FlatMap<NodeId, VehicleState> vehicles_;

  /// Arrival order; on_relay_tick() compacts it in place.
  std::vector<OverheardEntry> overheard_;
  RecentIdSet relay_considered_;
  RecentIdSet acks_overheard_;
  /// The relay decision's inputs, reused so the auxiliary set copies into
  /// storage it already has.
  RelayContext relay_ctx_;

  /// By packet id: salvage replies go out in ascending id order.
  FlatMap<std::uint64_t, SalvageEntry> salvage_buffer_;
  std::uint64_t relays_sent_ = 0;
  std::uint64_t salvaged_out_ = 0;
  /// Live relay-probability histogram, registered at construction when a
  /// MetricsRegistry is installed on this thread (nullptr otherwise).
  obs::Histogram* relay_prob_hist_ = nullptr;
  /// CoordTier seams (see the setters above); empty when no manager rides.
  std::function<void(NodeId, NodeId, NodeId)> beacon_observer_;
  std::function<bool(NodeId)> relay_filter_;
};

}  // namespace vifi::core
