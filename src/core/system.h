#pragma once

/// \file system.h
/// Assembles a complete ViFi deployment over a given channel: one medium,
/// one backplane, one radio + basestation agent per BS, one client per
/// vehicle of the fleet, and the wired correspondent host. This is the
/// public entry point for running live protocol experiments; examples and
/// benches build it from a scenario::Testbed plus either a stochastic or a
/// trace-driven channel.

#include <memory>
#include <vector>

#include "channel/loss_model.h"
#include "core/basestation.h"
#include "core/config.h"
#include "core/stats.h"
#include "core/vehicle.h"
#include "core/wired_host.h"
#include "mac/medium.h"
#include "mac/radio.h"
#include "net/backplane.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vifi::core {

struct SystemConfig {
  VifiConfig vifi;
  /// CoordTier: BS-side predictive handoff coordination (src/coord/).
  /// Plain data — the coord::ConnectivityManager consuming it is attached
  /// by the scenario layer, so core stays coord-free.
  CoordParams coord;
  mac::MediumParams medium;
  std::uint64_t seed = 1;
};

class VifiSystem {
 public:
  /// A fleet deployment — VanLAN itself ran two vans (§2.1); a single
  /// vehicle is a one-element fleet. Each vehicle gets its own ViFi client;
  /// BSes anchor them independently. \p loss must outlive the system. BS
  /// ids must be distinct from the vehicle and gateway ids.
  VifiSystem(sim::Simulator& sim, channel::LossModel& loss,
             std::vector<NodeId> bs_ids, std::vector<NodeId> vehicle_ids,
             NodeId gateway_id, SystemConfig config);

  VifiSystem(const VifiSystem&) = delete;
  VifiSystem& operator=(const VifiSystem&) = delete;

  /// Starts beaconing and protocol timers on every node.
  void start();

  /// The first (or only) vehicle.
  VifiVehicle& vehicle() { return *vehicles_.front(); }
  /// A specific vehicle of a fleet.
  VifiVehicle& vehicle(NodeId id);
  WiredHost& host() { return *host_; }
  VifiBasestation& basestation(NodeId id);
  mac::Medium& medium() { return *medium_; }
  net::Backplane& backplane() { return *backplane_; }
  VifiStats& stats() { return stats_; }
  net::PacketFactory& packets() { return packet_factory_; }
  sim::Simulator& simulator() { return sim_; }

  const std::vector<NodeId>& bs_ids() const { return bs_ids_; }
  const std::vector<NodeId>& vehicle_ids() const { return vehicle_ids_; }

  /// Convenience: makes and sends one upstream application packet from a
  /// vehicle (default: the first).
  net::PacketRef send_up(int bytes, int flow = 0, std::uint64_t app_seq = 0,
                         net::AppPayload app_data = {}, NodeId from = NodeId{});
  /// Convenience: makes and sends one downstream application packet to a
  /// vehicle (default: the first).
  net::PacketRef send_down(int bytes, int flow = 0, std::uint64_t app_seq = 0,
                           net::AppPayload app_data = {}, NodeId to = NodeId{});

 private:
  sim::Simulator& sim_;
  std::vector<NodeId> bs_ids_;
  std::vector<NodeId> vehicle_ids_;
  NodeId gateway_id_;
  SystemConfig config_;
  VifiStats stats_;
  net::PacketFactory packet_factory_;
  std::unique_ptr<mac::Medium> medium_;
  std::unique_ptr<net::Backplane> backplane_;
  std::vector<std::unique_ptr<mac::Radio>> radios_;
  std::vector<std::unique_ptr<VifiBasestation>> basestations_;
  std::vector<std::unique_ptr<mac::Radio>> vehicle_radios_;
  std::vector<std::unique_ptr<VifiVehicle>> vehicles_;
  std::unique_ptr<WiredHost> host_;
};

}  // namespace vifi::core
