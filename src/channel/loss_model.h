#pragma once

/// \file loss_model.h
/// The channel abstraction: given (transmitter, receiver, time), does a
/// frame get through? Two families implement it — the stochastic vehicular
/// model used for "deployment" experiments (VanLAN role) and the
/// trace-driven schedule used for DieselNet-style replay (§5.1).

#include "sim/ids.h"
#include "util/time.h"

namespace vifi::channel {

using sim::NodeId;

/// One frame's channel outcome at one receiver: whether the link's reception
/// probability reaches the caller's audibility threshold, and the delivery
/// draw made against that probability.
struct Reception {
  bool audible = false;
  bool delivered = false;
};

/// Per-link packet-delivery oracle.
///
/// `sample_delivery` draws one channel realisation for a single frame; it
/// must be called in non-decreasing time order per link. `reception_prob`
/// is a side-effect-free snapshot of the current average delivery
/// probability (what a perfect estimator would know), used by idealised
/// policies, analysis and trace records.
class LossModel {
 public:
  virtual ~LossModel() = default;

  virtual bool sample_delivery(NodeId tx, NodeId rx, Time now) = 0;

  virtual double reception_prob(NodeId tx, NodeId rx, Time now) const = 0;

  /// The medium's per-receiver hot path: `reception_prob(tx, rx, now) >=
  /// audible_at`, then `sample_delivery(tx, rx, now)`, in one call. Same
  /// results and draw sequence as those two calls in that order; models
  /// override it to evaluate the link once, or to settle both answers from
  /// bounds on the probability. The probability itself is available only
  /// through `reception_prob`.
  virtual Reception sample(NodeId tx, NodeId rx, Time now, double audible_at) {
    const bool audible = reception_prob(tx, rx, now) >= audible_at;
    return {audible, sample_delivery(tx, rx, now)};
  }
};

}  // namespace vifi::channel
