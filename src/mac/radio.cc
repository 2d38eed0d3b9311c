#include "mac/radio.h"

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::mac {

Radio::Radio(sim::Simulator& sim, Medium& medium, NodeId self, Rng rng)
    : sim_(sim), medium_(medium), self_(self), rng_(rng) {
  VIFI_EXPECTS(self.valid());
  medium_.attach(self_, this);
}

void Radio::send(Frame frame) {
  frame.tx = self_;
  if (obs::TraceRecorder* rec = obs::current_recorder())
    rec->record(obs::EventKind::FrameEnqueue, sim_.now(), self_,
                frame.data.hop_dst, frame.data.packet_id,
                static_cast<double>(queue_.size()),
                static_cast<double>(frame.data.attempt),
                static_cast<std::int32_t>(frame.type));
  queue_.push_back(std::move(frame));
  try_send();
}

void Radio::try_send() {
  if (queue_.empty() || transmitting_ || retry_scheduled_) return;
  const Time now = sim_.now();
  const Time until = medium_.busy_until(self_, now);
  if (until > now) {
    // Defer until the audible transmission ends plus a random number of
    // slots; fixed window, no exponential growth (§4.8).
    const Time wait =
        until - now +
        kSlot * static_cast<double>(rng_.uniform_int(1, kMaxDeferSlots));
    medium_.note_deferral(self_, wait);
    retry_scheduled_ = true;
    sim_.schedule(wait, [this] {
      retry_scheduled_ = false;
      try_send();
    });
    return;
  }
  Frame frame = std::move(queue_.front());
  queue_.pop_front();
  transmitting_ = true;
  ++frames_sent_;
  const Time hold = medium_.transmit(std::move(frame));
  sim_.schedule(hold, [this] {
    transmitting_ = false;
    if (queue_.empty()) {
      if (on_idle_) on_idle_();
    } else {
      try_send();
    }
  });
}

void Radio::set_receiver(std::function<void(const Frame&)> handler) {
  receiver_ = std::move(handler);
}

void Radio::set_idle_callback(std::function<void()> handler) {
  on_idle_ = std::move(handler);
}

void Radio::on_frame(const Frame& frame) {
  ++frames_received_;
  if (receiver_) receiver_(frame);
}

}  // namespace vifi::mac
