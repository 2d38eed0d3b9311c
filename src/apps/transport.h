#pragma once

/// \file transport.h
/// The application-facing datagram service between a vehicle and the
/// wired host, one per vehicle of a fleet. Applications (VoIP, TCP,
/// probes) are transport-agnostic: they run unchanged over ViFi/BRR
/// (VifiTransport) or over the cellular comparison link (§5.3.1).

#include <functional>
#include <map>

#include "core/system.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace vifi::apps {

using net::Direction;

/// Unreliable datagram transport between the vehicle end and the host end.
class Transport {
 public:
  using Handler = std::function<void(const net::PacketRef&)>;

  virtual ~Transport() = default;

  /// Sends \p bytes toward the other end. Upstream = vehicle-to-host.
  virtual void send(Direction dir, int bytes, int flow,
                    std::uint64_t app_seq, net::AppPayload data = {}) = 0;

  /// Registers the unique-delivery handler for a flow (both directions;
  /// the packet's dir field disambiguates).
  virtual void subscribe(int flow, Handler handler) = 0;

  /// Removes a flow's handler. Must be called before the handler's
  /// captures die — late packets for the flow may still be in flight.
  virtual void unsubscribe(int flow) = 0;

  virtual Time now() const = 0;
};

/// Transport over a live ViFi (or BRR-configured) deployment, bound to one
/// vehicle of the fleet: it registers that vehicle's delivery handler and
/// its per-vehicle handler on the wired host, so one VifiTransport per
/// vehicle coexists on the shared host.
class VifiTransport final : public Transport {
 public:
  VifiTransport(core::VifiSystem& system, sim::NodeId vehicle);

  /// The vehicle this transport serves.
  sim::NodeId vehicle() const { return vehicle_; }

  void send(Direction dir, int bytes, int flow, std::uint64_t app_seq,
            net::AppPayload data = {}) override;
  void subscribe(int flow, Handler handler) override;
  void unsubscribe(int flow) override;
  Time now() const override;

 private:
  void dispatch(const net::PacketRef& p);

  core::VifiSystem& system_;
  sim::NodeId vehicle_;
  std::map<int, Handler> handlers_;
};

}  // namespace vifi::apps
