#pragma once

/// \file backplane.h
/// The wired inter-BS communication plane. The paper's target environment
/// assumes it is *bandwidth-limited* — thin broadband or a wireless mesh
/// (§4.1) — which is why ViFi's coordination must stay lightweight. Every
/// ordered pair of nodes is one point-to-point link of the same model: a
/// FIFO serialiser at kRateBps, then kLatency. No link loses a message;
/// one addressed to a node that never attached is dropped on arrival.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/ids.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace vifi::net {

/// A message on the wired plane: either a forwarded data packet or a small
/// control message (salvage requests/replies).
struct WireMessage {
  enum class Kind {
    Data,            ///< A forwarded application packet.
    RelayedData,     ///< An upstream packet relayed by an auxiliary (§4.3).
    SalvageRequest,  ///< New anchor asks the old one for stranded packets.
    SalvageReply,    ///< One salvaged packet (§4.5).
    AnchorRegister,  ///< BS tells the wired gateway it now anchors a vehicle.
  };
  Kind kind = Kind::Data;
  NodeId from;
  NodeId to;
  PacketRef packet;  ///< For Data / RelayedData / SalvageReply.
  NodeId about;      ///< Vehicle in question (salvage/register messages).
  int attempt = 1;   ///< RelayedData: the source attempt that was overheard.
  int bytes = 0;     ///< On-wire size.
};

/// Point-to-point wired links between BSes and to the wired gateway.
class Backplane {
 public:
  static constexpr double kRateBps = 1.5e6;  ///< Thin broadband uplink.
  /// One-way propagation + switching.
  static constexpr Time kLatency = Time::millis(8);

  using Handler = std::function<void(const WireMessage&)>;

  explicit Backplane(sim::Simulator& sim) : sim_(sim) {}

  /// Registers the receive callback of a node attached to the plane.
  void attach(NodeId node, Handler handler);

  /// Queues \p msg from msg.from to msg.to. Delivery happens after queueing
  /// + serialisation + latency.
  void send(WireMessage msg);

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void deliver(std::uint32_t slot);

  sim::Simulator& sim_;
  /// When each ordered pair's serialiser is available again.
  std::unordered_map<sim::LinkKey, Time> next_free_;
  std::unordered_map<NodeId, Handler> handlers_;
  /// Messages on the wire, each in a reused slot its delivery event names:
  /// a message is larger than an event's inline closure storage, so
  /// capturing it would allocate per send.
  std::vector<WireMessage> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace vifi::net
