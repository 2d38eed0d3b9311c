#pragma once

/// \file pab.h
/// Beacon-based estimation and dissemination of pairwise packet reception
/// probabilities p_ab (§4.6). Each node:
///
///   * estimates incoming probability from every neighbour as an
///     exponential average (alpha = 0.5) of the per-second beacon
///     reception ratio;
///   * gossips those estimates in its own beacons;
///   * re-gossips what it learned so that an auxiliary BS can know, e.g.,
///     the anchor-to-vehicle probability without hearing the vehicle.
///
/// Gossip is filed by transmitter, so a node's own reverse estimates are
/// one row, and entries past the freshness window are evicted once per
/// second, which bounds the table over long trips.
///
/// Who files what: a BS folds every row (fold_reports), because its relay
/// decisions read links between other nodes. A vehicle only ever gossips
/// its own row back and reads nothing else from the table, so it folds
/// that row alone (fold_own_reports) and skips the rest of each beacon.
///
/// Every table is a FlatMap keyed by NodeId: one record per beacon
/// neighbour (this second's beacon count, when it was last heard, the
/// incoming estimate) and one gossip row per transmitter. Iteration is in
/// ascending id order, as the gossip payload and the anchor choice need,
/// and a beacon heard, folded or exported allocates nothing once the
/// neighbours and rows exist.

#include <vector>

#include "mac/frame.h"
#include "sim/ids.h"
#include "util/ewma.h"
#include "util/flat_map.h"
#include "util/time.h"

namespace vifi::core {

using sim::NodeId;

class PabTable {
 public:
  /// \p self is the owning node; \p beacons_per_second calibrates ratios.
  PabTable(NodeId self, int beacons_per_second = 10, double alpha = 0.5);

  /// Records reception of one beacon from \p from (direct observation).
  void note_beacon(NodeId from, Time now);

  /// Merges gossip carried in a received beacon.
  void fold_reports(const std::vector<mac::ProbReport>& reports, Time now);

  /// Merges only the beacon's reports about this node's own outgoing links
  /// (from == self): the one gossip row export_reports() reads.
  void fold_own_reports(const std::vector<mac::ProbReport>& reports,
                        Time now);

  /// Rolls the current second's beacon counts into the exponential
  /// averages and evicts gossip older than the freshness window. Call once
  /// per second, with non-decreasing times.
  void tick_second(Time now);

  /// Best known estimate of P(b receives from a); \p fallback when unknown
  /// or stale.
  double get(NodeId from, NodeId to, Time now, double fallback = 0.0) const;

  /// Incoming-probability estimate from \p from to self.
  double incoming(NodeId from, Time now, double fallback = 0.0) const;

  /// Calls \p fn(NodeId) for each neighbour heard within \p staleness of
  /// \p now, in ascending id order.
  template <typename Fn>
  void for_each_recent_neighbor(Time now, Time staleness, Fn&& fn) const {
    for (const auto& [from, n] : neighbors_)
      if (now - n.last_heard <= staleness) fn(from);
  }

  /// Fills \p out with the gossip payload for this node's next beacon: all
  /// fresh incoming estimates (from=neighbour, to=self) plus fresh reverse
  /// estimates (from=self, to=neighbour) learned from neighbours' gossip.
  void export_reports(Time now, std::vector<mac::ProbReport>& out) const;

  NodeId self() const { return self_; }

  /// Gossip (from,to) entries held; tick_second() keeps this to what was
  /// heard within the freshness window, however long the trip.
  std::size_t gossip_entries() const;

 private:
  /// One node this one has heard beacons from.
  struct Neighbor {
    int beacons_this_second = 0;
    Time last_heard;
    /// Exponential average of the per-second reception ratio, from the
    /// first tick_second() after the first beacon on.
    Ewma incoming{0.5};
    Time estimated_at;  ///< Latest update of `incoming`.
  };
  /// Gossip about one link, filed under its transmitter and receiver.
  struct Link {
    double prob = 0.0;
    Time last_update;
  };
  /// Everything learned about one transmitter's links, by receiver.
  using Row = FlatMap<NodeId, Link>;

  /// Gossip entries and direct estimates go stale after this long.
  static constexpr double kFreshnessSeconds = 5.0;

  static bool stale(Time last_update, Time now) {
    return (now - last_update).to_seconds() > kFreshnessSeconds;
  }
  /// Files one report; \p row caches the previous report's transmitter
  /// row, since a beacon's reports come in runs sharing one.
  void file(FlatMap<NodeId, Row>::value_type*& row, const mac::ProbReport& r,
            Time now);

  NodeId self_;
  int beacons_per_second_;
  double alpha_;
  FlatMap<NodeId, Neighbor> neighbors_;
  /// Gossip (from,to) -> P by transmitter: the node's own row is its
  /// reverse estimates. tick_second() evicts stale links, so the rows hold
  /// only the freshness window; an emptied row stays, keeping its storage
  /// for the transmitter's next report.
  FlatMap<NodeId, Row> remote_;
};

}  // namespace vifi::core
