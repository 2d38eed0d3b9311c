#include "apps/transport.h"

#include "util/contracts.h"

namespace vifi::apps {

VifiTransport::VifiTransport(core::VifiSystem& system, sim::NodeId vehicle)
    : system_(system), vehicle_(vehicle) {
  system_.vehicle(vehicle_).set_delivery_handler(
      [this](const net::PacketRef& p) { dispatch(p); });
  system_.host().set_delivery_handler(
      vehicle_, [this](const net::PacketRef& p) { dispatch(p); });
}

void VifiTransport::send(Direction dir, int bytes, int flow,
                         std::uint64_t app_seq, net::AppPayload data) {
  if (dir == Direction::Upstream)
    system_.send_up(bytes, flow, app_seq, std::move(data), vehicle_);
  else
    system_.send_down(bytes, flow, app_seq, std::move(data), vehicle_);
}

void VifiTransport::subscribe(int flow, Handler handler) {
  VIFI_EXPECTS(handler != nullptr);
  handlers_[flow] = std::move(handler);
}

void VifiTransport::unsubscribe(int flow) { handlers_.erase(flow); }

Time VifiTransport::now() const { return system_.simulator().now(); }

void VifiTransport::dispatch(const net::PacketRef& p) {
  const auto it = handlers_.find(p->flow);
  if (it != handlers_.end()) it->second(p);
}

}  // namespace vifi::apps
