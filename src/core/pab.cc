#include "core/pab.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::core {

PabTable::PabTable(NodeId self, int beacons_per_second, double alpha)
    : self_(self), beacons_per_second_(beacons_per_second), alpha_(alpha) {
  VIFI_EXPECTS(self.valid());
  VIFI_EXPECTS(beacons_per_second > 0);
}

void PabTable::note_beacon(NodeId from, Time now) {
  ++counts_this_second_[from];
  last_heard_[from] = now;
}

void PabTable::fold_reports(const std::vector<mac::ProbReport>& reports,
                            Time now) {
  Transmitter* row = nullptr;
  for (const mac::ProbReport& r : reports) file(row, r, now);
}

void PabTable::fold_own_reports(const std::vector<mac::ProbReport>& reports,
                                Time now) {
  Transmitter* row = nullptr;
  for (const mac::ProbReport& r : reports)
    if (r.from == self_) file(row, r, now);
}

void PabTable::file(Transmitter*& row, const mac::ProbReport& r, Time now) {
  if (!r.from.valid() || !r.to.valid()) return;
  if (r.to == self_) return;  // we know our own incoming better
  // A beacon's reports come in runs sharing a transmitter (the sender's
  // reverse estimates), so the row is looked up once per run.
  if (row == nullptr || row->from != r.from) {
    auto it = std::lower_bound(
        remote_.begin(), remote_.end(), r.from,
        [](const Transmitter& t, NodeId from) { return t.from < from; });
    if (it == remote_.end() || it->from != r.from)
      it = remote_.insert(it, Transmitter{r.from, {}});
    row = &*it;
  }
  auto link = std::lower_bound(
      row->links.begin(), row->links.end(), r.to,
      [](const Remote& l, NodeId to) { return l.to < to; });
  if (link == row->links.end() || link->to != r.to)
    link = row->links.insert(link, Remote{r.to, 0.0, now});
  link->prob = std::clamp(r.prob, 0.0, 1.0);
  link->last_update = now;
}

void PabTable::tick_second(Time now) {
  // Every neighbour heard recently gets an update; silence counts as zero
  // so estimates age out naturally.
  for (auto& [from, est] : incoming_) {
    const auto it = counts_this_second_.find(from);
    const int c = it == counts_this_second_.end() ? 0 : it->second;
    // Only keep feeding zeros while the neighbour is plausibly nearby.
    const auto lh = last_heard_.find(from);
    const bool fresh = lh != last_heard_.end() &&
                       (now - lh->second).to_seconds() < kFreshnessSeconds;
    if (c > 0 || fresh) {
      est.avg.update(std::min(
          1.0, static_cast<double>(c) / beacons_per_second_));
      est.last_update = now;
    }
  }
  // New neighbours.
  for (const auto& [from, c] : counts_this_second_) {
    if (incoming_.contains(from)) continue;
    Estimate est;
    est.avg = Ewma(alpha_);
    est.avg.update(
        std::min(1.0, static_cast<double>(c) / beacons_per_second_));
    est.last_update = now;
    incoming_.emplace(from, est);
  }
  counts_this_second_.clear();
  // Stale gossip reads as unknown already (get() checks the same age, and
  // time only moves on), so evicting it changes no answer and bounds the
  // table by the freshness window.
  for (Transmitter& t : remote_)
    std::erase_if(t.links,
                  [now](const Remote& l) { return stale(l.last_update, now); });
  std::erase_if(remote_, [](const Transmitter& t) { return t.links.empty(); });
}

std::size_t PabTable::gossip_entries() const {
  std::size_t n = 0;
  for (const Transmitter& t : remote_) n += t.links.size();
  return n;
}

const PabTable::Transmitter* PabTable::transmitter(NodeId from) const {
  const auto it = std::lower_bound(
      remote_.begin(), remote_.end(), from,
      [](const Transmitter& t, NodeId f) { return t.from < f; });
  return it == remote_.end() || it->from != from ? nullptr : &*it;
}

double PabTable::incoming(NodeId from, Time now, double fallback) const {
  const auto it = incoming_.find(from);
  if (it == incoming_.end() || !it->second.avg.initialized())
    return fallback;
  if (stale(it->second.last_update, now)) return fallback;
  return it->second.avg.value();
}

double PabTable::get(NodeId from, NodeId to, Time now,
                     double fallback) const {
  if (to == self_) return incoming(from, now, fallback);
  const Transmitter* t = transmitter(from);
  if (t == nullptr) return fallback;
  const auto it = std::lower_bound(
      t->links.begin(), t->links.end(), to,
      [](const Remote& l, NodeId r) { return l.to < r; });
  if (it == t->links.end() || it->to != to) return fallback;
  if (stale(it->last_update, now)) return fallback;
  return it->prob;
}

std::vector<NodeId> PabTable::recent_neighbors(Time now,
                                               Time staleness) const {
  std::vector<NodeId> out;
  for (const auto& [from, t] : last_heard_)
    if (now - t <= staleness) out.push_back(from);
  return out;
}

std::vector<mac::ProbReport> PabTable::export_reports(Time now) const {
  std::vector<mac::ProbReport> out;
  // Own incoming estimates: (neighbour -> self).
  for (const auto& [from, est] : incoming_) {
    if (!est.avg.initialized()) continue;
    if (stale(est.last_update, now)) continue;
    out.push_back({from, self_, est.avg.value()});
  }
  // Reverse direction learned from gossip: (self -> neighbour), one row.
  if (const Transmitter* t = transmitter(self_)) {
    for (const Remote& l : t->links)
      if (!stale(l.last_update, now)) out.push_back({self_, l.to, l.prob});
  }
  return out;
}

}  // namespace vifi::core
