#pragma once

/// \file vehicle.h
/// The ViFi client on the vehicle (§4.3): picks the anchor with BRR over
/// beacons, designates every other recently-heard BS as auxiliary,
/// broadcasts beacons carrying {anchor, previous anchor, auxiliaries, pab
/// gossip}, sources upstream packets through its VifiSender and sinks
/// downstream packets (direct or relayed) through its VifiReceiver, which
/// suppresses duplicates and acknowledges per the §4.3 rules.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/pab.h"
#include "core/receiver.h"
#include "core/sender.h"
#include "core/stats.h"
#include "mac/beaconing.h"
#include "mac/radio.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vifi::core {

class VifiVehicle {
 public:
  VifiVehicle(sim::Simulator& sim, mac::Radio& radio, const VifiConfig& config,
              Rng rng, VifiStats* stats);

  VifiVehicle(const VifiVehicle&) = delete;
  VifiVehicle& operator=(const VifiVehicle&) = delete;

  NodeId self() const { return radio_.self(); }
  NodeId anchor() const { return anchor_; }
  NodeId prev_anchor() const { return prev_anchor_; }
  /// The auxiliary set a beacon sent now would designate, ascending.
  std::vector<NodeId> auxiliaries() const;
  /// Fills \p aux with that set, reusing its storage (the beacon path).
  void auxiliaries(std::vector<NodeId>& aux) const;
  /// Its size, without building it (every source transmission asks).
  int auxiliary_count() const;

  /// Starts beaconing and periodic housekeeping.
  void start();

  /// Sends an application packet upstream (to the wired host through the
  /// anchor). The caller provides a fully-formed packet.
  void send_up(net::PacketRef packet);

  /// Called with each unique downstream packet delivered to the client.
  void set_delivery_handler(std::function<void(const net::PacketRef&)> fn);

  VifiSender& sender() { return sender_; }
  const PabTable& pab() const { return pab_; }

  std::uint64_t anchor_switches() const { return anchor_switches_; }

 private:
  void on_frame(const mac::Frame& f);
  void on_data(const mac::Frame& f);
  void on_second_tick();
  void select_anchor();
  void beacon_payload(mac::BeaconPayload& p) const;

  sim::Simulator& sim_;
  mac::Radio& radio_;
  VifiConfig config_;
  VifiStats* stats_;
  PabTable pab_;
  mac::Beaconing beaconing_;
  sim::PeriodicTimer second_tick_;
  sim::PeriodicTimer pump_tick_;
  VifiSender sender_;
  VifiReceiver receiver_;

  NodeId anchor_{};
  NodeId prev_anchor_{};
  std::uint64_t anchor_switches_ = 0;
  int last_aux_count_ = 0;  ///< Last auxiliary-set size traced.
};

}  // namespace vifi::core
