#include "apps/voip.h"

#include <algorithm>

#include "analysis/sessions.h"
#include "util/stats.h"

namespace vifi::apps {

VoipCall::VoipCall(sim::Simulator& sim, Transport& transport,
                   VoipParams params)
    : sim_(sim),
      transport_(transport),
      params_(params),
      tick_(sim, params.packet_interval, [this] { on_tick(); }) {
  transport_.subscribe(params_.flow,
                       [this](const net::PacketRef& p) { on_delivery(p); });
}

void VoipCall::start(Time until) {
  until_ = until;
  tick_.start_after(Time::zero() + params_.packet_interval);
}

void VoipCall::on_tick() {
  if (sim_.now() >= until_) {
    tick_.stop();
    return;
  }
  const std::uint64_t seq = next_seq_++;
  for (const Direction dir : {Direction::Upstream, Direction::Downstream}) {
    sent_[{static_cast<int>(dir), seq}] = {sim_.now(), false};
    transport_.send(dir, params_.payload_bytes, params_.flow, seq);
  }
}

void VoipCall::on_delivery(const net::PacketRef& p) {
  const auto key = std::make_pair(static_cast<int>(p->dir), p->app_seq);
  const auto it = sent_.find(key);
  if (it == sent_.end()) return;
  const double wireless_ms = (sim_.now() - it->second.at).to_millis();
  if (wireless_ms <= params_.budget.wireless_deadline_ms())
    it->second.on_time = true;
}

VoipResult VoipCall::result() const {
  VoipResult r;
  if (sent_.empty()) return r;
  // Bucket packets into 3-second windows by send time.
  const double window_s = params_.window.to_seconds();
  const auto n_windows = static_cast<std::size_t>(
      until_.to_seconds() / window_s + 0.5);
  std::vector<std::int64_t> total(n_windows, 0), on_time(n_windows, 0);
  for (const auto& [key, sent] : sent_) {
    (void)key;
    const auto w = static_cast<std::size_t>(sent.at.to_seconds() / window_s);
    if (w >= n_windows) continue;
    ++total[w];
    if (sent.on_time) ++on_time[w];
    ++r.packets_sent;
    if (sent.on_time) ++r.packets_on_time;
  }
  // Score each window. The delay term is the full budget (a fixed-depth
  // jitter buffer plays out at a fixed mouth-to-ear delay; §5.3.2 aims at
  // 177 ms); the loss term absorbs both losses and deadline misses.
  const double d = params_.budget.coding_ms + params_.budget.jitter_buffer_ms +
                   params_.budget.wired_ms +
                   params_.budget.wireless_deadline_ms();
  r.window_mos.reserve(n_windows);
  for (std::size_t w = 0; w < n_windows; ++w) {
    const double loss =
        total[w] == 0 ? 1.0
                      : 1.0 - static_cast<double>(on_time[w]) / total[w];
    r.window_mos.push_back(mos_g729(d, loss));
  }
  r.session_lengths_s = mos_session_lengths(
      r.window_mos, params_.interruption_mos, window_s);
  r.median_session_s = analysis::median_session_length(r.session_lengths_s);
  RunningStats ms;
  for (double m : r.window_mos) ms.add(m);
  r.mean_mos = ms.count() ? ms.mean() : 0.0;
  return r;
}

std::vector<double> mos_session_lengths(const std::vector<double>& window_mos,
                                        double threshold, double window_s) {
  return analysis::run_lengths(window_mos, threshold, window_s);
}

}  // namespace vifi::apps
