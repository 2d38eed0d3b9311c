#pragma once

/// \file trace_driven.h
/// The paper's §5.1 trace-driven methodology: "The beacon loss ratio from a
/// BS to the vehicle in each one-second interval is used as the packet loss
/// rate from that BS to the vehicle and from the vehicle to the BS", with
/// inter-BS pairs that are never simultaneously visible treated as
/// unreachable and other pairs given a Uniform(0,1) loss ratio.
///
/// The schedule is symmetric per one-second bucket; finer-timescale
/// behaviour and asymmetry are deliberately ignored, as in the paper.

#include <cstdint>
#include <vector>

#include "channel/loss_model.h"
#include "util/rng.h"

namespace vifi::channel {

/// A per-second, per-pair loss-rate schedule driving a memoryless channel.
class TraceLossModel final : public LossModel {
 public:
  explicit TraceLossModel(Rng rng) : rng_(rng) {}

  /// Sets the loss rate (in [0,1]) between a and b for second \p sec.
  /// Symmetric: stored once per unordered pair.
  void set_loss_rate(NodeId a, NodeId b, int sec, double loss);

  /// Sets a time-invariant loss rate for the pair (used for inter-BS links).
  void set_constant_loss_rate(NodeId a, NodeId b, double loss);

  /// Loss rate in effect for the pair at time \p now; 1.0 (unreachable)
  /// where nothing was recorded.
  double loss_rate(NodeId a, NodeId b, Time now) const;

  /// Number of seconds covered by the longest per-pair schedule.
  int horizon_seconds() const { return horizon_; }

  bool sample_delivery(NodeId tx, NodeId rx, Time now) override;
  double reception_prob(NodeId tx, NodeId rx, Time now) const override;
  /// One schedule lookup serves both the probability and the draw.
  Reception sample(NodeId tx, NodeId rx, Time now, double audible_at) override;

 private:
  struct PairSchedule {
    std::vector<double> per_second;  // loss rate per second; <0 => unset
    double constant = -1.0;          // >= 0 overrides when second unset
  };

  /// The pair's schedule, created on first use.
  PairSchedule& schedule(NodeId a, NodeId b);
  /// The pair's schedule; null where nothing was recorded.
  const PairSchedule* find(NodeId a, NodeId b) const;

  /// A pair lives in the row of its lower id, indexed by the higher id, as
  /// 1 + its index in `schedules_` (0 = none). Rows grow on demand, so a
  /// node that is never the lower end of a recorded pair (a vehicle, whose
  /// ids follow the BSes') keeps an empty row.
  std::vector<std::vector<std::uint32_t>> rows_;
  std::vector<PairSchedule> schedules_;
  int horizon_ = 0;
  Rng rng_;
};

}  // namespace vifi::channel
