#include "core/sender.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/contracts.h"
#include "util/stats.h"

namespace vifi::core {

namespace {
constexpr std::size_t kDelayWindow = 512;
}

VifiSender::VifiSender(sim::Simulator& sim, mac::Radio& radio,
                       const VifiConfig& config, NodeId self, Direction dir)
    : sim_(sim), radio_(radio), config_(config), self_(self), dir_(dir) {
  VIFI_EXPECTS(self.valid());
  if (obs::MetricsRegistry* metrics = obs::current_metrics())
    retx_interval_hist_ = &metrics->histogram(
        "core.retx_interval_s",
        {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0},
        {{"node", self.to_string()},
         {"dir", dir == Direction::Upstream ? "up" : "down"}});
}

void VifiSender::set_hop_dst_provider(std::function<NodeId()> provider) {
  hop_dst_ = std::move(provider);
}

void VifiSender::set_piggyback_provider(
    std::function<void(std::vector<std::uint64_t>&)> provider) {
  piggyback_ = std::move(provider);
}

void VifiSender::set_designated_aux_provider(std::function<int()> provider) {
  designated_aux_ = std::move(provider);
}

void VifiSender::set_drop_handler(
    std::function<void(const net::PacketRef&)> handler) {
  on_drop_ = std::move(handler);
}

void VifiSender::enqueue(net::PacketRef packet) {
  VIFI_EXPECTS(packet != nullptr);
  Entry& e = entries_.emplace_back();
  e.id = packet->id;
  e.packet = std::move(packet);
  e.next_ready = sim_.now();
  pump();
}

Time VifiSender::retx_interval() const {
  const std::size_t n = ack_delays_s_.size();
  if (n < 20) return config_.retx_initial;
  // Selected in a reused buffer: every retransmittable attempt asks.
  delay_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) delay_scratch_[i] = ack_delays_s_[i];
  const Time p99 = Time::seconds(percentile_in_place(delay_scratch_, 99.0));
  return std::clamp(p99, config_.retx_floor, config_.retx_cap);
}

void VifiSender::acknowledge(std::uint64_t packet_id, Time now,
                             bool explicit_ack) {
  // Late, duplicate or another sender's ack: almost every offer at a BS.
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [packet_id](const Entry& e) { return e.id == packet_id; });
  if (it == entries_.end()) return;
  if (explicit_ack && it->attempts > 0) {
    // Delay measured from the latest attempt: unique per-packet ids keep
    // acks from being credited to older *packets*; crediting an older
    // attempt of the same packet only makes the timer more conservative,
    // which is the direction §4.7 prefers.
    if (ack_delays_s_.size() == kDelayWindow) ack_delays_s_.pop_front();
    ack_delays_s_.push_back((now - it->last_tx).to_seconds());
  }
  ++acked_;
  entries_.erase(it);
}

void VifiSender::pump() {
  if (!radio_.idle()) return;  // one frame pending at the interface (§4.8)
  if (!hop_dst_ || !hop_dst_().valid()) return;
  const Time now = sim_.now();

  // Earliest-queued packet that is ready (§4.7): the queue is in arrival
  // order, so that is the first ready entry. Only when none is ready does
  // the scan run to the end, for the earliest wake-up.
  Time earliest_future = Time::max();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].next_ready <= now) {
      transmit(i);
      return;
    }
    earliest_future = std::min(earliest_future, entries_[i].next_ready);
  }
  if (earliest_future < Time::max()) arm_wake(earliest_future);
}

void VifiSender::arm_wake(Time at) {
  if (wake_at_ <= at && wake_at_ > sim_.now()) return;  // already armed
  sim_.cancel(wake_);
  wake_at_ = at;
  wake_ = sim_.schedule_at(at, [this] {
    wake_at_ = Time::max();
    pump();
  });
}

void VifiSender::transmit(std::size_t i) {
  Entry& e = entries_[i];
  const Time now = sim_.now();
  ++e.attempts;
  e.last_tx = now;

  mac::Frame f = radio_.recycled_frame(mac::FrameType::Data);
  f.packet = e.packet;
  f.data.packet_id = e.id;
  f.data.attempt = e.attempts;
  f.data.origin = self_;
  f.data.hop_dst = hop_dst_();
  f.data.is_relay = false;
  if (piggyback_) piggyback_(f.data.piggyback_acked);

  if (stats_) {
    stats_->on_source_tx(e.id, e.attempts, dir_, now,
                         designated_aux_ ? designated_aux_() : 0);
    stats_->on_wireless_data_tx(dir_);
  }

  const bool last_attempt = e.attempts >= 1 + config_.max_retx;
  if (last_attempt) {
    // No more attempts: the entry leaves the queue once the frame is out.
    const net::PacketRef packet = std::move(e.packet);
    const int attempts = e.attempts;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    ++dropped_;
    radio_.send(std::move(f));
    if (obs::TraceRecorder* rec = obs::current_recorder())
      rec->record(obs::EventKind::FrameDrop, now, self_,
                  hop_dst_ ? hop_dst_() : NodeId{}, packet->id,
                  static_cast<double>(attempts), 0.0,
                  dir_ == Direction::Downstream ? 1 : 0);
    if (on_drop_) on_drop_(packet);
  } else {
    const Time interval = retx_interval();
    if (retx_interval_hist_) retx_interval_hist_->observe(interval.to_seconds());
    e.next_ready = now + interval;
    radio_.send(std::move(f));
  }
}

}  // namespace vifi::core
