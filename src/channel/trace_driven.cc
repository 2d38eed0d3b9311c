#include "channel/trace_driven.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::channel {

TraceLossModel::PairSchedule& TraceLossModel::schedule(NodeId a, NodeId b) {
  VIFI_EXPECTS(a.valid() && b.valid());
  if (b < a) std::swap(a, b);
  const auto lo = static_cast<std::size_t>(a.value());
  const auto hi = static_cast<std::size_t>(b.value());
  if (lo >= rows_.size()) rows_.resize(lo + 1);
  std::vector<std::uint32_t>& row = rows_[lo];
  if (hi >= row.size()) row.resize(hi + 1, 0);
  if (row[hi] == 0) {
    schedules_.emplace_back();
    row[hi] = static_cast<std::uint32_t>(schedules_.size());
  }
  return schedules_[row[hi] - 1];
}

const TraceLossModel::PairSchedule* TraceLossModel::find(NodeId a,
                                                        NodeId b) const {
  if (b < a) std::swap(a, b);
  // An invalid (negative) id wraps to a row index past any row.
  const auto lo = static_cast<std::size_t>(a.value());
  const auto hi = static_cast<std::size_t>(b.value());
  if (lo >= rows_.size() || hi >= rows_[lo].size() || rows_[lo][hi] == 0)
    return nullptr;
  return &schedules_[rows_[lo][hi] - 1];
}

void TraceLossModel::set_loss_rate(NodeId a, NodeId b, int sec, double loss) {
  VIFI_EXPECTS(sec >= 0);
  VIFI_EXPECTS(loss >= 0.0 && loss <= 1.0);
  PairSchedule& sched = schedule(a, b);
  if (sched.per_second.size() <= static_cast<std::size_t>(sec))
    sched.per_second.resize(static_cast<std::size_t>(sec) + 1, -1.0);
  sched.per_second[static_cast<std::size_t>(sec)] = loss;
  horizon_ = std::max(horizon_, sec + 1);
}

void TraceLossModel::set_constant_loss_rate(NodeId a, NodeId b, double loss) {
  VIFI_EXPECTS(loss >= 0.0 && loss <= 1.0);
  schedule(a, b).constant = loss;
}

double TraceLossModel::loss_rate(NodeId a, NodeId b, Time now) const {
  const PairSchedule* found = find(a, b);
  if (found == nullptr) return 1.0;
  const PairSchedule& sched = *found;
  const auto sec = static_cast<std::size_t>(
      std::max<std::int64_t>(0, now.to_micros() / 1'000'000));
  if (sec < sched.per_second.size() && sched.per_second[sec] >= 0.0)
    return sched.per_second[sec];
  if (sched.constant >= 0.0) return sched.constant;
  return 1.0;
}

bool TraceLossModel::sample_delivery(NodeId tx, NodeId rx, Time now) {
  return rng_.bernoulli(1.0 - loss_rate(tx, rx, now));
}

double TraceLossModel::reception_prob(NodeId tx, NodeId rx, Time now) const {
  return 1.0 - loss_rate(tx, rx, now);
}

Reception TraceLossModel::sample(NodeId tx, NodeId rx, Time now,
                                 double audible_at) {
  const double prob = reception_prob(tx, rx, now);
  return {prob >= audible_at, rng_.bernoulli(prob)};
}

}  // namespace vifi::channel
