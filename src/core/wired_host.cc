#include "core/wired_host.h"

#include "core/id_set.h"
#include "util/contracts.h"

namespace vifi::core {

namespace {
constexpr int kWireHeaderBytes = 28;
}

WiredHost::WiredHost(net::Backplane& backplane, NodeId self, VifiStats* stats)
    : backplane_(backplane), self_(self), stats_(stats) {
  VIFI_EXPECTS(self.valid());
  backplane_.attach(self_,
                    [this](const net::WireMessage& m) { on_wire(m); });
}

void WiredHost::send_down(net::PacketRef packet) {
  VIFI_EXPECTS(packet != nullptr);
  VIFI_EXPECTS(packet->dir == net::Direction::Downstream);
  const NodeId anchor = registered_anchor(packet->dst);
  if (!anchor.valid()) {
    ++undeliverable_;
    return;
  }
  net::WireMessage msg;
  msg.kind = net::WireMessage::Kind::Data;
  msg.from = self_;
  msg.to = anchor;
  msg.bytes = packet->bytes + kWireHeaderBytes;
  msg.packet = std::move(packet);
  backplane_.send(std::move(msg));
}

void WiredHost::set_delivery_handler(
    NodeId vehicle, std::function<void(const net::PacketRef&)> fn) {
  VIFI_EXPECTS(vehicle.valid());
  deliver_per_vehicle_[vehicle] = std::move(fn);
}

NodeId WiredHost::registered_anchor(NodeId vehicle) const {
  const auto it = anchor_of_.find(vehicle);
  return it == anchor_of_.end() ? NodeId{} : it->second;
}

void WiredHost::on_wire(const net::WireMessage& msg) {
  switch (msg.kind) {
    case net::WireMessage::Kind::AnchorRegister:
      anchor_of_[msg.about] = msg.from;
      break;
    case net::WireMessage::Kind::Data: {
      VIFI_EXPECTS(msg.packet != nullptr);
      if (!delivered_.insert(msg.packet->id)) return;  // duplicate
      if (stats_) stats_->on_app_delivered(net::Direction::Upstream);
      const auto it = deliver_per_vehicle_.find(msg.packet->src);
      if (it != deliver_per_vehicle_.end() && it->second)
        it->second(msg.packet);
      break;
    }
    default:
      break;  // other kinds are BS-to-BS only
  }
}

}  // namespace vifi::core
