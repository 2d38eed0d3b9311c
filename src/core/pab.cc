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
  const auto [it, heard_first] = neighbors_.try_emplace(from);
  Neighbor& n = it->second;
  if (heard_first) n.incoming = Ewma(alpha_);
  ++n.beacons_this_second;
  n.last_heard = now;
}

void PabTable::fold_reports(const std::vector<mac::ProbReport>& reports,
                            Time now) {
  FlatMap<NodeId, Row>::value_type* row = nullptr;
  for (const mac::ProbReport& r : reports) file(row, r, now);
}

void PabTable::fold_own_reports(const std::vector<mac::ProbReport>& reports,
                                Time now) {
  FlatMap<NodeId, Row>::value_type* row = nullptr;
  for (const mac::ProbReport& r : reports)
    if (r.from == self_) file(row, r, now);
}

void PabTable::file(FlatMap<NodeId, Row>::value_type*& row,
                    const mac::ProbReport& r, Time now) {
  if (!r.from.valid() || !r.to.valid()) return;
  if (r.to == self_) return;  // we know our own incoming better
  // A beacon's reports come in runs sharing a transmitter (the sender's
  // reverse estimates), so the row is looked up once per run.
  if (row == nullptr || row->first != r.from)
    row = &*remote_.try_emplace(r.from).first;
  Link& link = row->second[r.to];
  link.prob = std::clamp(r.prob, 0.0, 1.0);
  link.last_update = now;
}

void PabTable::tick_second(Time now) {
  for (auto& [from, n] : neighbors_) {
    const double ratio = std::min(
        1.0, static_cast<double>(n.beacons_this_second) / beacons_per_second_);
    // A new neighbour's first second, then every second while it is
    // plausibly nearby: silence counts as zero, so estimates age out
    // naturally.
    if (!n.incoming.initialized() || n.beacons_this_second > 0 ||
        (now - n.last_heard).to_seconds() < kFreshnessSeconds) {
      n.incoming.update(ratio);
      n.estimated_at = now;
    }
    n.beacons_this_second = 0;
  }
  // Stale gossip reads as unknown already (get() checks the same age, and
  // time only moves on), so evicting it changes no answer and bounds the
  // table by the freshness window.
  for (auto& [from, row] : remote_)
    row.erase_if([now](const Row::value_type& l) {
      return stale(l.second.last_update, now);
    });
}

std::size_t PabTable::gossip_entries() const {
  std::size_t n = 0;
  for (const auto& [from, row] : remote_) n += row.size();
  return n;
}

double PabTable::incoming(NodeId from, Time now, double fallback) const {
  const auto it = neighbors_.find(from);
  if (it == neighbors_.end() || !it->second.incoming.initialized())
    return fallback;
  if (stale(it->second.estimated_at, now)) return fallback;
  return it->second.incoming.value();
}

double PabTable::get(NodeId from, NodeId to, Time now,
                     double fallback) const {
  if (to == self_) return incoming(from, now, fallback);
  const auto row = remote_.find(from);
  if (row == remote_.end()) return fallback;
  const auto it = row->second.find(to);
  if (it == row->second.end()) return fallback;
  if (stale(it->second.last_update, now)) return fallback;
  return it->second.prob;
}

void PabTable::export_reports(Time now,
                              std::vector<mac::ProbReport>& out) const {
  out.clear();
  // Own incoming estimates: (neighbour -> self).
  for (const auto& [from, n] : neighbors_) {
    if (!n.incoming.initialized()) continue;
    if (stale(n.estimated_at, now)) continue;
    out.push_back({from, self_, n.incoming.value()});
  }
  // Reverse direction learned from gossip: (self -> neighbour), one row.
  if (const auto row = remote_.find(self_); row != remote_.end()) {
    for (const auto& [to, l] : row->second)
      if (!stale(l.last_update, now)) out.push_back({self_, to, l.prob});
  }
}

}  // namespace vifi::core
