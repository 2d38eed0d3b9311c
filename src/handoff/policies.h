#pragma once

/// \file policies.h
/// The six handoff policies of §3.1. Each is built by its paper name in
/// one place, runtime::make_replay_policy (reached through
/// runtime::replay_trip), which every bench, example and sweep point uses.
///
/// 1. RSSI    — exponential average (alpha 0.5) of received-beacon RSSI;
///              what commodity NICs do.
/// 2. BRR     — exponential average of per-second beacon reception ratio
///              (ETX-style probe metric).
/// 3. Sticky  — hold the current BS until silence for 3 s, then strongest
///              signal (the CarTel strategy).
/// 4. History — best historical (previous-day) per-location performance
///              (MobiSteer-style).
/// 5. BestBS  — oracle: per second, the BS with the best two-way reception
///              in the *next* second; upper-bounds hard handoff.
/// 6. AllBSes — oracle macrodiversity: success if any BS succeeds; this one
///              lives in replay.h since it is not an association policy.

#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "handoff/policy.h"
#include "trace/observations.h"

namespace vifi::handoff {

class RssiPolicy final : public HandoffPolicy {
 public:
  /// \p staleness: a BS is a candidate only if heard within this window.
  explicit RssiPolicy(double alpha = 0.5, int staleness_s = 5)
      : alpha_(alpha), staleness_s_(staleness_s) {}
  std::vector<NodeId> choose(const MeasurementTrace& trip) override;

 private:
  double alpha_;
  int staleness_s_;
};

class BrrPolicy final : public HandoffPolicy {
 public:
  explicit BrrPolicy(double alpha = 0.5) : alpha_(alpha) {}
  std::vector<NodeId> choose(const MeasurementTrace& trip) override;

 private:
  double alpha_;
};

class StickyPolicy final : public HandoffPolicy {
 public:
  explicit StickyPolicy(Time silence = Time::seconds(3.0))
      : silence_(silence) {}
  std::vector<NodeId> choose(const MeasurementTrace& trip) override;

 private:
  Time silence_;
};

/// History's per-location reception over one campaign: day d's table maps
/// each (grid cell, BS) to the two-way probe successes of day d's slots
/// in that cell. Each day's table is built once, on first use, and is
/// immutable after, so every trace a point replays (on any worker) reads
/// the same table instead of rebuilding it.
class HistoryTables {
 public:
  struct CellScore {
    double sum = 0.0;
    int n = 0;
  };
  using DayTable = std::map<std::pair<mobility::GridCell, NodeId>, CellScore>;

  /// \p campaign must outlive the tables.
  explicit HistoryTables(const trace::Campaign& campaign,
                         double cell_size_m = 25.0);

  /// Day \p day's table (empty for a day without trips). Thread-safe.
  const DayTable& day(int day) const;
  double cell_size_m() const { return cell_size_m_; }

 private:
  const trace::Campaign& campaign_;
  double cell_size_m_;
  mutable std::vector<std::once_flag> built_;  ///< Per campaign day.
  mutable std::vector<DayTable> tables_;
};

/// History needs the whole campaign: day d associates using day d-1 logs.
/// On day 0 (or in cells never visited before) it falls back to the BS
/// with the highest recent beacon count.
class HistoryPolicy final : public HandoffPolicy {
 public:
  /// Reads \p tables, which must outlive the policy.
  explicit HistoryPolicy(const HistoryTables& tables) : tables_(&tables) {}
  std::vector<NodeId> choose(const MeasurementTrace& trip) override;

 private:
  const HistoryTables* tables_;
};

/// Oracle upper bound for hard handoff: per one-second period, associates
/// to the BS with the best (down + up) reception in that period (§3.1.5).
class BestBsPolicy final : public HandoffPolicy {
 public:
  std::vector<NodeId> choose(const MeasurementTrace& trip) override;
};

}  // namespace vifi::handoff
