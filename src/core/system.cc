#include "core/system.h"

#include <algorithm>
#include <string>

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::core {

VifiSystem::VifiSystem(sim::Simulator& sim, channel::LossModel& loss,
                       std::vector<NodeId> bs_ids,
                       std::vector<NodeId> vehicle_ids, NodeId gateway_id,
                       SystemConfig config)
    : sim_(sim),
      bs_ids_(std::move(bs_ids)),
      vehicle_ids_(std::move(vehicle_ids)),
      gateway_id_(gateway_id),
      config_(config) {
  VIFI_EXPECTS(!bs_ids_.empty());
  VIFI_EXPECTS(!vehicle_ids_.empty());
  VIFI_EXPECTS(gateway_id.valid());
  for (NodeId v : vehicle_ids_) {
    VIFI_EXPECTS(v.valid());
    VIFI_EXPECTS(std::find(bs_ids_.begin(), bs_ids_.end(), v) ==
                 bs_ids_.end());
  }

  Rng root(config.seed);
  medium_ = std::make_unique<mac::Medium>(sim_, loss, config.medium);
  backplane_ =
      std::make_unique<net::Backplane>(sim_, root.fork("backplane"));
  backplane_->set_default_link(config.wired);

  for (NodeId bs : bs_ids_) {
    auto radio = std::make_unique<mac::Radio>(
        sim_, *medium_, bs, root.fork("radio" + std::to_string(bs.value())));
    medium_->set_role(bs, mac::NodeRole::Infrastructure);
    auto agent = std::make_unique<VifiBasestation>(
        sim_, *radio, *backplane_, gateway_id_, config_.vifi,
        root.fork("bs" + std::to_string(bs.value())), &stats_);
    radios_.push_back(std::move(radio));
    basestations_.push_back(std::move(agent));
  }

  for (NodeId v : vehicle_ids_) {
    auto radio = std::make_unique<mac::Radio>(
        sim_, *medium_, v,
        root.fork("radio-vehicle" + std::to_string(v.value())));
    medium_->set_role(v, mac::NodeRole::Vehicle);
    auto agent = std::make_unique<VifiVehicle>(
        sim_, *radio, config_.vifi,
        root.fork("vehicle" + std::to_string(v.value())), &stats_);
    vehicle_radios_.push_back(std::move(radio));
    vehicles_.push_back(std::move(agent));
  }
  host_ = std::make_unique<WiredHost>(*backplane_, gateway_id_, &stats_);

  if (obs::TraceRecorder* rec = obs::current_recorder()) {
    for (NodeId bs : bs_ids_) rec->set_node_label(bs, "bs");
    for (NodeId v : vehicle_ids_) rec->set_node_label(v, "vehicle");
    rec->set_node_label(gateway_id_, "host");
  }
}

void VifiSystem::start() {
  for (auto& bs : basestations_) bs->start();
  for (auto& v : vehicles_) v->start();
}

VifiVehicle& VifiSystem::vehicle(NodeId id) {
  for (std::size_t i = 0; i < vehicle_ids_.size(); ++i)
    if (vehicle_ids_[i] == id) return *vehicles_[i];
  throw ContractViolation("unknown vehicle id " + id.to_string());
}

VifiBasestation& VifiSystem::basestation(NodeId id) {
  for (std::size_t i = 0; i < bs_ids_.size(); ++i)
    if (bs_ids_[i] == id) return *basestations_[i];
  throw ContractViolation("unknown basestation id " + id.to_string());
}

net::PacketRef VifiSystem::send_up(int bytes, int flow,
                                   std::uint64_t app_seq,
                                   net::AppPayload app_data, NodeId from) {
  if (!from.valid()) from = vehicle_ids_.front();
  auto p = packet_factory_.make(net::Direction::Upstream, from, gateway_id_,
                                bytes, sim_.now(), flow, app_seq,
                                std::move(app_data));
  vehicle(from).send_up(p);
  return p;
}

net::PacketRef VifiSystem::send_down(int bytes, int flow,
                                     std::uint64_t app_seq,
                                     net::AppPayload app_data, NodeId to) {
  if (!to.valid()) to = vehicle_ids_.front();
  auto p = packet_factory_.make(net::Direction::Downstream, gateway_id_, to,
                                bytes, sim_.now(), flow, app_seq,
                                std::move(app_data));
  host_->send_down(p);
  return p;
}

}  // namespace vifi::core
