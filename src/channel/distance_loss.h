#pragma once

/// \file distance_loss.h
/// Distance-dependent mean reception probability and a synthetic RSSI.
/// The shape (near-perfect close in, a soft shoulder, then rapid falloff)
/// matches outdoor 1 Mbps 802.11b with omni antennas — the fixed, lowest
/// rate the paper uses to maximise range (§5.1).

#include <memory>
#include <vector>

#include "util/rng.h"

namespace vifi::channel {

/// Logistic distance→delivery-probability curve.
class DistanceLossCurve {
 public:
  struct Params {
    double p_max = 0.97;       ///< Delivery probability right at the BS.
    double midpoint_m = 135.0; ///< Distance where probability halves.
    /// Shoulder softness: a wide shoulder creates the broad marginal bands
    /// (reception 0.2-0.7, several BSes at once) that the paper's campus
    /// exhibits — the regime where diversity pays.
    double width_m = 48.0;
  };

  DistanceLossCurve() : DistanceLossCurve(Params{}) {}
  explicit DistanceLossCurve(const Params& p);

  /// Mean delivery probability at the given distance (meters, >= 0).
  double reception_prob(double distance_m) const;

  /// Distance beyond which reception is negligible (< 0.1%); callers can
  /// skip work for pairs farther apart.
  double cutoff_m() const { return cutoff_m_; }

  /// Inverse of the curve: the distance at which reception falls to \p p
  /// (0 < p < 1; 0 when even distance zero is already below \p p). Links
  /// longer than this are *provably* below \p p for any fade state, since
  /// every stochastic multiplier the vehicular channel composes on top of
  /// this curve is <= 1 — the basis for spatial interference culling.
  double range_for(double p) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
  double cutoff_m_;
};

/// Bounds on a curve's value at a link's length, looked up from the squared
/// length so that callers can often settle a link without `std::hypot` or
/// `std::exp`. The squared lengths below the cutoff are split into equal
/// bands; each band holds the curve at its two end distances, widened
/// outward. A table is immutable once built, so channels on the same curve
/// share one (see shared()).
class DistanceBands {
 public:
  struct Bounds {
    double lo = 0.0;
    double hi = 0.0;
  };

  explicit DistanceBands(const DistanceLossCurve& curve);

  /// The table of \p curve, shared by every caller with the same curve
  /// parameters (the few most recently built are kept; the bounds do not
  /// depend on which caller built them).
  static std::shared_ptr<const DistanceBands> shared(
      const DistanceLossCurve& curve);

  /// Bounds with `lo <= curve.reception_prob(std::hypot(dx, dy)) <= hi` for
  /// any dx, dy with `d2 == dx * dx + dy * dy`. Null where only the exact
  /// curve decides: in the band that touches the cutoff, beyond it, and for
  /// a NaN \p d2.
  const Bounds* find(double d2) const;

  /// Squared length above which `std::hypot(dx, dy)` is certainly beyond
  /// the cutoff.
  double far_sq() const { return far_sq_; }

 private:
  DistanceLossCurve curve_;
  double bands_per_m2_;
  double far_sq_;
  std::vector<Bounds> bands_;
};

/// Synthetic received signal strength (dBm) for beacon logs: log-distance
/// path loss with shadowing noise. Only its *ordering* matters — the RSSI
/// handoff policy picks the strongest BS.
double synthesize_rssi_dbm(double distance_m, Rng& rng);

}  // namespace vifi::channel
