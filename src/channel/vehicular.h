#pragma once

/// \file vehicular.h
/// The stochastic vehicular radio environment used for "deployment"
/// experiments (the reproduction's VanLAN). It composes, per link:
///
///   reception = distance_curve(d)            (slow, geometry-driven)
///             x Gilbert–Elliott burst state  (fast, path-dependent fading)
///             x gray-period state            (rare seconds-long collapses)
///             x common-mode vehicle fade     (small receiver-dependent term)
///
/// Calibration targets are the paper's measured statistics, not RF truth:
/// Fig. 5 (number of BSes audible per second), Fig. 6(a) (burstiness:
/// P(loss_{i+k} | loss_i) decaying from ~0.7 to the unconditional rate) and
/// Fig. 6(b) (losses nearly independent across BSes — the common-mode fade
/// supplies the paper's small residual correlation).

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "channel/distance_loss.h"
#include "channel/loss_model.h"
#include "channel/markov.h"
#include "mobility/vec2.h"
#include "util/rng.h"

namespace vifi::channel {

struct VehicularChannelParams {
  DistanceLossCurve::Params distance{};

  // Gilbert–Elliott burst fading (per directed link).
  Time ge_mean_good = Time::seconds(3.0);
  Time ge_mean_bad = Time::seconds(0.9);
  double ge_bad_multiplier = 0.12;  ///< Reception multiplier in Bad state.

  // Gray periods (per undirected path; §3.3): sharp unpredictable drops
  // even close to a BS.
  Time gray_mean_off = Time::seconds(55.0);
  Time gray_mean_on = Time::seconds(4.0);
  double gray_multiplier = 0.05;

  // Common-mode fade tied to a *mobile node* (vehicle passing an
  // obstruction). Affects all of that node's links at once; kept weak so
  // cross-BS losses stay roughly independent (Fig. 6b).
  Time common_mean_off = Time::seconds(30.0);
  Time common_mean_on = Time::seconds(1.2);
  double common_multiplier = 0.45;
};

/// Stochastic per-link delivery model; see file comment.
class VehicularChannel final : public LossModel {
 public:
  /// \p positions maps any registered node to its position at a time. It
  /// must be a pure function of (node, time): the channel evaluates it at
  /// most once per node and instant (one transmit instant queries every
  /// receiver against the same transmitter position).
  using PositionFn = std::function<mobility::Vec2(NodeId, Time)>;

  /// Throws ContractViolation unless every multiplier is in [0, 1] and every
  /// sojourn mean is positive: spatial culling and the bounds below rest on
  /// multipliers that can only lower a link's probability.
  VehicularChannel(VehicularChannelParams params, PositionFn positions,
                   Rng rng);

  /// Marks a node as mobile: it gets a common-mode fade process.
  void mark_mobile(NodeId node);

  /// Marks a node that never moves (a BS): its position is read once, here,
  /// and the position function is not asked for it again.
  void mark_fixed(NodeId node);

  /// \p node's position at \p now, through the channel's own cache: the
  /// draws that follow at the same instant do not evaluate it again.
  mobility::Vec2 position(NodeId node, Time now) const;

  /// True when a link between nodes at \p a and \p b is beyond the cutoff:
  /// sample() settles it without a draw and without touching a fade state,
  /// so a caller may skip that call altogether.
  bool out_of_range(mobility::Vec2 a, mobility::Vec2 b) const {
    return squared_length(a, b) > bands_->far_sq();
  }

  /// `sample(tx, rx, now, +inf).delivered`: the same bounds path.
  bool sample_delivery(NodeId tx, NodeId rx, Time now) override;
  double reception_prob(NodeId tx, NodeId rx, Time now) const override;
  /// Bounds first: a link's band of distances bounds its probability, so
  /// most draws are settled without `std::hypot`, `std::exp` or, for a
  /// clear miss, the fade states. The results and draws are exactly those
  /// of the probability followed by `Rng::bernoulli`.
  Reception sample(NodeId tx, NodeId rx, Time now, double audible_at) override;

  /// Distance-only mean reception (no fade states); for analysis and tests.
  double geometric_reception_prob(NodeId tx, NodeId rx, Time now) const;

  const VehicularChannelParams& params() const { return params_; }

 private:
  /// Per-node state, indexed by node id and grown on demand. The slot rows
  /// map a peer's id to 1 + its process's index in the pools below (0 = not
  /// created yet), so the per-receiver hot path indexes instead of hashing.
  struct NodeState {
    bool mobile = false;
    bool fixed = false;  ///< `position` holds for all time.
    std::optional<TwoStateProcess> fade_on;  // ON == vehicle-wide fade
    std::vector<std::uint32_t> burst_slot;   // by receiver
    std::vector<std::uint32_t> gray_slot;    // by peer, both directions
    /// Position cache: `position` as of `position_at` (none yet: never).
    Time position_at = Time::micros(std::numeric_limits<std::int64_t>::min());
    mobility::Vec2 position;
  };

  /// A directed link with both endpoints' state, looked up once.
  struct Link {
    NodeId tx;
    NodeId rx;
    NodeState& tx_state;
    NodeState& rx_state;
  };

  /// Which of a link's multipliers apply at one instant.
  struct Fades {
    bool burst = false;
    bool gray = false;
    bool tx_fade = false;
    bool rx_fade = false;
  };

  /// The squared length that out_of_range() and sample() test, computed
  /// in one place so both reach the same verdict.
  static double squared_length(mobility::Vec2 a, mobility::Vec2 b) {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return dx * dx + dy * dy;
  }

  NodeState& node_state(NodeId n) const;
  Link link(NodeId tx, NodeId rx) const;
  TwoStateProcess& burst(Link l) const;  // ON == Bad state
  TwoStateProcess& gray(Link l) const;   // ON == gray period
  TwoStateProcess* fade(NodeState& ns, NodeId n) const;  // null if fixed
  mobility::Vec2 position(NodeState& ns, NodeId n, Time now) const;
  /// Transmitter position minus receiver position at \p now.
  mobility::Vec2 offset(const Link& l, Time now) const;
  Fades fades(const Link& l, Time now) const;
  /// \p p times the multipliers of \p f, in one fixed order, clamped to
  /// [0, 1]. Monotone in \p p, and never above it.
  double faded(double p, Fades f) const;
  /// The exact probability of link \p l, \p delta long, at \p now.
  double exact_prob(const Link& l, mobility::Vec2 delta, Time now) const;

  VehicularChannelParams params_;
  DistanceLossCurve curve_;
  std::shared_ptr<const DistanceBands> bands_;
  PositionFn positions_;
  mutable Rng rng_;
  mutable std::vector<NodeState> nodes_;
  /// Gilbert–Elliott burst fading per directed link.
  mutable std::vector<TwoStateProcess> bursts_;
  /// Gray periods per undirected path (§3.3).
  mutable std::vector<TwoStateProcess> grays_;
  mutable Rng draw_rng_;
};

}  // namespace vifi::channel
