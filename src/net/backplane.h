#pragma once

/// \file backplane.h
/// The wired inter-BS communication plane. The paper's target environment
/// assumes it is *bandwidth-limited* — thin broadband or a wireless mesh
/// (§4.1) — which is why ViFi's coordination must stay lightweight. We model
/// point-to-point links with fixed latency, serialisation at a configurable
/// rate, FIFO queueing, and optional loss (the DieselNet simulations draw
/// inter-BS loss ratios uniformly at random, §5.1).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/ids.h"
#include "sim/simulator.h"
#include "util/rng.h"
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
  std::uint64_t link_seq = 0;  ///< RelayedData: stream sequence (§4.7).
  int bytes = 0;     ///< On-wire size.
};

/// Point-to-point wired links between BSes and to the wired gateway.
class Backplane {
 public:
  struct LinkParams {
    double rate_bps = 1.5e6;        ///< Thin broadband uplink.
    Time latency = Time::millis(8); ///< One-way propagation + switching.
    double loss = 0.0;              ///< Per-message drop probability.
  };

  using Handler = std::function<void(const WireMessage&)>;

  Backplane(sim::Simulator& sim, Rng rng) : sim_(sim), rng_(rng) {}

  /// Registers the receive callback of a node attached to the plane.
  void attach(NodeId node, Handler handler);

  /// Declares a link with explicit parameters (both directions share them
  /// unless declared separately). Undeclared links use defaults.
  void set_link(NodeId a, NodeId b, LinkParams params);
  void set_default_link(LinkParams params) { default_ = params; }

  /// Marks a pair as having no wired path (DieselNet: BS pairs never
  /// simultaneously in vehicle range are unreachable, §5.1).
  void set_unreachable(NodeId a, NodeId b);

  /// Queues \p msg from msg.from to msg.to. Delivery happens after queueing
  /// + serialisation + latency, or never (loss / unreachable).
  void send(WireMessage msg);

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct LinkState {
    LinkParams params;
    Time next_free;  ///< When the serialiser is available again.
    bool unreachable = false;
  };

  LinkState& link(NodeId a, NodeId b);
  void deliver(std::uint32_t slot);

  sim::Simulator& sim_;
  Rng rng_;
  LinkParams default_{};
  std::unordered_map<sim::LinkKey, LinkState> links_;
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
