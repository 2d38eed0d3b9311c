#include "core/receiver.h"

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::core {

bool VifiReceiver::accept(const Arrival& a) {
  VIFI_EXPECTS(a.packet != nullptr);
  const std::uint64_t id = a.packet->id;
  const bool is_new = received_.insert(id);
  if (stats_ && a.relayed) stats_->on_relay_reached_dst(id, a.attempt, a.peer);
  if (stats_ && !a.relayed) stats_->on_dst_rx_direct(id, a.attempt);
  // Every direct copy is acked, a relayed one only if no copy was before;
  // the insert goes first so that a direct copy marks the packet acked.
  if (acked_once_.insert(id) || !a.relayed) {
    mac::Frame ack;
    ack.type = mac::FrameType::Ack;
    ack.ack.packet_id = id;
    radio_.send(std::move(ack));
  }
  if (!is_new) return false;

  window_.push_back(id);
  while (window_.size() > static_cast<std::size_t>(config_.piggyback_depth))
    window_.pop_front();
  if (obs::TraceRecorder* rec = obs::current_recorder())
    rec->record(obs::EventKind::AppDeliver, sim_.now(), radio_.self(), a.peer,
                id, 0.0, 0.0, dir_ == Direction::Downstream ? 1 : 0);
  if (!release_) return true;
  if (!config_.inorder_delivery || a.link_seq == 0) {
    release_(a.packet);
    return true;
  }
  std::unique_ptr<Sequencer>& sequencer = sequencers_[a.origin];
  if (!sequencer)
    sequencer = std::make_unique<Sequencer>(
        sim_, config_.reorder_hold,
        [this](const net::PacketRef& p) { release_(p); });
  sequencer->push(a.link_seq, a.packet);
  return true;
}

}  // namespace vifi::core
