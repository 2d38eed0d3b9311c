#include "core/stats.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/stats.h"

namespace vifi::core {

void VifiStats::on_source_tx(std::uint64_t id, int attempt, Direction dir,
                             Time /*now*/, int designated_aux) {
  AttemptRecord rec;
  rec.dir = dir;
  rec.designated_aux = designated_aux;
  const auto next = static_cast<std::uint32_t>(attempts_.size());
  const auto [at, inserted] = index_.try_emplace(key(id, attempt), next);
  // A key sent again (a salvaged packet re-sent by its new anchor, or an
  // attempt number past 63) starts its record over.
  if (inserted)
    attempts_.push_back(rec);
  else
    attempts_[*at] = rec;
}

VifiStats::AttemptRecord* VifiStats::find(std::uint64_t id, int attempt) {
  const std::uint32_t* at = index_.find(key(id, attempt));
  return at == nullptr ? nullptr : &attempts_[*at];
}

void VifiStats::on_dst_rx_direct(std::uint64_t id, int attempt) {
  if (AttemptRecord* r = find(id, attempt)) r->dst_heard = true;
}

void VifiStats::on_aux_overhear(std::uint64_t id, int attempt,
                                NodeId /*aux*/) {
  if (AttemptRecord* r = find(id, attempt)) ++r->aux_heard;
}

void VifiStats::on_aux_contend(std::uint64_t id, int attempt,
                               NodeId /*aux*/) {
  if (AttemptRecord* r = find(id, attempt)) ++r->aux_contended;
}

void VifiStats::on_aux_relay(std::uint64_t id, int attempt, NodeId aux) {
  if (AttemptRecord* r = find(id, attempt)) {
    relays_.push_back({aux, false, r->first_relay});
    r->first_relay = static_cast<std::uint32_t>(relays_.size() - 1);
    ++r->relays;
  }
}

void VifiStats::on_relay_reached_dst(std::uint64_t id, int attempt,
                                     NodeId aux) {
  if (AttemptRecord* r = find(id, attempt)) {
    for (std::uint32_t i = r->first_relay; i != kNoRelay; i = relays_[i].next)
      if (relays_[i].aux == aux) relays_[i].reached_dst = true;
  }
}

void VifiStats::on_app_delivered(Direction dir) {
  (dir == Direction::Upstream ? delivered_up_ : delivered_down_) += 1;
}

void VifiStats::on_wireless_data_tx(Direction dir) {
  (dir == Direction::Upstream ? tx_up_ : tx_down_) += 1;
}

std::int64_t VifiStats::app_delivered(Direction dir) const {
  return dir == Direction::Upstream ? delivered_up_ : delivered_down_;
}

std::int64_t VifiStats::wireless_data_tx(Direction dir) const {
  return dir == Direction::Upstream ? tx_up_ : tx_down_;
}

std::int64_t VifiStats::source_attempts(Direction dir) const {
  return std::count_if(
      attempts_.begin(), attempts_.end(),
      [dir](const AttemptRecord& r) { return r.dir == dir; });
}

CoordinationSummary VifiStats::coordination(Direction dir) const {
  CoordinationSummary s;
  std::vector<double> designated;
  designated.reserve(attempts_.size());
  std::int64_t n = 0;
  std::int64_t heard_sum = 0, contend_sum = 0;
  std::int64_t reached = 0, failed = 0;
  std::int64_t fp_relays = 0, fp_events = 0, fp_relay_count_sum = 0;
  std::int64_t failed_with_cover = 0, failed_no_relay = 0;
  std::int64_t relays = 0, relays_ok = 0;

  for (const AttemptRecord& r : attempts_) {
    if (r.dir != dir) continue;
    ++n;
    designated.push_back(static_cast<double>(r.designated_aux));
    heard_sum += r.aux_heard;
    contend_sum += r.aux_contended;
    relays += r.relays;
    for (std::uint32_t i = r.first_relay; i != kNoRelay; i = relays_[i].next)
      if (relays_[i].reached_dst) ++relays_ok;
    if (r.dst_heard) {
      ++reached;
      if (r.relays > 0) {
        ++fp_events;
        fp_relays += r.relays;
        fp_relay_count_sum += r.relays;
      }
    } else {
      ++failed;
      if (r.aux_heard > 0) {
        ++failed_with_cover;
        if (r.relays == 0) ++failed_no_relay;
      }
    }
  }

  if (n == 0) return s;
  s.attempts = n;
  s.median_designated_aux = median(designated);
  s.avg_aux_heard = static_cast<double>(heard_sum) / n;
  s.avg_aux_heard_no_ack = static_cast<double>(contend_sum) / n;
  s.frac_src_tx_reached_dst = static_cast<double>(reached) / n;
  s.frac_src_tx_failed = static_cast<double>(failed) / n;
  s.false_positive_rate =
      reached > 0 ? static_cast<double>(fp_relays) / reached : 0.0;
  s.avg_relays_when_fp =
      fp_events > 0 ? static_cast<double>(fp_relay_count_sum) / fp_events
                    : 0.0;
  s.frac_failed_with_aux_cover =
      failed > 0 ? static_cast<double>(failed_with_cover) / failed : 0.0;
  s.false_negative_rate =
      failed_with_cover > 0
          ? static_cast<double>(failed_no_relay) / failed_with_cover
          : 0.0;
  s.frac_relays_reached_dst =
      relays > 0 ? static_cast<double>(relays_ok) / relays : 0.0;
  return s;
}

void VifiStats::publish(obs::MetricsRegistry& registry) const {
  const auto dir_labels = [](Direction dir) {
    return obs::Labels{{"dir", dir == Direction::Upstream ? "up" : "down"}};
  };
  for (const Direction dir : {Direction::Upstream, Direction::Downstream}) {
    const obs::Labels labels = dir_labels(dir);
    registry.counter("core.app_delivered", labels)
        .add(static_cast<double>(app_delivered(dir)));
    registry.counter("core.wireless_data_tx", labels)
        .add(static_cast<double>(wireless_data_tx(dir)));
    registry.counter("core.source_attempts", labels)
        .add(static_cast<double>(source_attempts(dir)));
    const CoordinationSummary c = coordination(dir);
    registry.gauge("core.frac_src_tx_reached_dst", labels)
        .set(c.frac_src_tx_reached_dst);
    registry.gauge("core.false_positive_rate", labels)
        .set(c.false_positive_rate);
    registry.gauge("core.false_negative_rate", labels)
        .set(c.false_negative_rate);
    registry.gauge("core.frac_relays_reached_dst", labels)
        .set(c.frac_relays_reached_dst);
  }
  registry.counter("core.salvaged").add(static_cast<double>(salvaged_));
  const EfficiencySummary e = efficiency();
  registry.gauge("core.efficiency", dir_labels(Direction::Upstream)).set(e.up);
  registry.gauge("core.efficiency", dir_labels(Direction::Downstream))
      .set(e.down);
}

EfficiencySummary VifiStats::efficiency() const {
  EfficiencySummary e;
  if (tx_up_ > 0)
    e.up = static_cast<double>(delivered_up_) / static_cast<double>(tx_up_);
  if (tx_down_ > 0)
    e.down =
        static_cast<double>(delivered_down_) / static_cast<double>(tx_down_);

  // PerfectRelay estimate from the same logs (§5.4): exactly one BS relays,
  // and only when the destination missed the source transmission.
  std::int64_t up_attempts = 0, up_delivered = 0;
  std::int64_t down_attempts = 0, down_delivered = 0, down_relays = 0;
  for (const AttemptRecord& r : attempts_) {
    if (r.dir == Direction::Upstream) {
      // Upstream relays ride the backplane, so wireless cost is the source
      // transmission alone; delivery succeeds if any BS heard it.
      ++up_attempts;
      if (r.dst_heard || r.aux_heard > 0) ++up_delivered;
    } else {
      ++down_attempts;
      bool delivered = r.dst_heard;
      if (!r.dst_heard) {
        if (r.relays > 0) {
          // Outcome identical to ViFi's relaying (§5.4 rule i).
          for (std::uint32_t i = r.first_relay; i != kNoRelay;
               i = relays_[i].next)
            delivered = delivered || relays_[i].reached_dst;
          ++down_relays;  // PerfectRelay would have sent exactly one
        } else if (r.aux_heard > 0) {
          // ViFi did not relay; PerfectRelay would have, successfully
          // (§5.4 rule ii).
          delivered = true;
          ++down_relays;
        }
      }
      if (delivered) ++down_delivered;
    }
  }
  if (up_attempts > 0)
    e.perfect_up = static_cast<double>(up_delivered) /
                   static_cast<double>(up_attempts);
  if (down_attempts + down_relays > 0)
    e.perfect_down = static_cast<double>(down_delivered) /
                     static_cast<double>(down_attempts + down_relays);
  return e;
}

}  // namespace vifi::core
