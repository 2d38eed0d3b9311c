#include "channel/distance_loss.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/contracts.h"

namespace vifi::channel {

DistanceLossCurve::DistanceLossCurve(const Params& p) : params_(p) {
  VIFI_EXPECTS(p.p_max > 0.0 && p.p_max <= 1.0);
  VIFI_EXPECTS(p.midpoint_m > 0.0);
  VIFI_EXPECTS(p.width_m > 0.0);
  // Solve p_max / (1 + exp((d - mid)/w)) < 1e-3 for d.
  cutoff_m_ = range_for(1e-3);
}

double DistanceLossCurve::range_for(double p) const {
  VIFI_EXPECTS(p > 0.0 && p < 1.0);
  if (p >= reception_prob(0.0)) return 0.0;
  return std::max(0.0, params_.midpoint_m +
                           params_.width_m * std::log(params_.p_max / p - 1.0));
}

double DistanceLossCurve::reception_prob(double distance_m) const {
  VIFI_EXPECTS(distance_m >= 0.0);
  const double z = (distance_m - params_.midpoint_m) / params_.width_m;
  return params_.p_max / (1.0 + std::exp(z));
}

namespace {

/// Bands over [0, cutoff^2): 64 KB of bounds per table.
constexpr std::size_t kBands = 4096;

// The slacks widen each band so that its bounds hold for the values the
// exact path computes, not only for the true curve.
//
// Distance, relative: the band a link falls in comes from d2 = dx*dx +
// dy*dy (three roundings), the index d2 * bands_per_m2 and the band's ends
// sqrt(i / bands_per_m2) (two more roundings, sqrt correctly rounded), and
// the exact path measures the link with std::hypot (glibc: within 1 ulp).
// Together these move a length by under 1e-15 of itself; 1e-9 puts every
// hypot result inside its band's widened ends, and keeps far_sq beyond any
// length hypot rounds to the cutoff or below.
constexpr double kDistanceSlack = 1e-9;
// Probability, relative: the curve's subtraction, division, addition and
// division are correctly rounded and so monotone in d; std::exp is within
// a few ulps of the true exponential, so two lengths in order can give
// curve values a few ulps out of order. 1e-12 covers that, and the rounding
// of the curve at the band ends and of the widening products, many times
// over.
constexpr double kProbSlack = 1e-12;

}  // namespace

DistanceBands::DistanceBands(const DistanceLossCurve& curve)
    : curve_(curve),
      bands_per_m2_(static_cast<double>(kBands) /
                    (curve.cutoff_m() * curve.cutoff_m())),
      far_sq_(curve.cutoff_m() * curve.cutoff_m() * (1.0 + kDistanceSlack)),
      bands_(kBands) {
  // find() never reads the last band, which touches the cutoff.
  for (std::size_t i = 0; i + 1 < kBands; ++i) {
    const double near_m = std::sqrt(static_cast<double>(i) / bands_per_m2_);
    const double far_m = std::sqrt(static_cast<double>(i + 1) / bands_per_m2_);
    // The curve falls with distance: the near end bounds it from above.
    bands_[i].hi = curve_.reception_prob(near_m * (1.0 - kDistanceSlack)) *
                   (1.0 + kProbSlack);
    bands_[i].lo = curve_.reception_prob(far_m * (1.0 + kDistanceSlack)) *
                   (1.0 - kProbSlack);
  }
}

std::shared_ptr<const DistanceBands> DistanceBands::shared(
    const DistanceLossCurve& curve) {
  // The most recently built tables: a handful covers every testbed
  // calibration while bounding what a sweep over many curves keeps alive.
  constexpr std::size_t kKept = 8;
  static std::mutex mu;
  static std::vector<std::shared_ptr<const DistanceBands>> kept;
  const DistanceLossCurve::Params& p = curve.params();
  const auto same = [&p](const std::shared_ptr<const DistanceBands>& b) {
    const DistanceLossCurve::Params& q = b->curve_.params();
    return q.p_max == p.p_max && q.midpoint_m == p.midpoint_m &&
           q.width_m == p.width_m;
  };
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = std::find_if(kept.begin(), kept.end(), same);
  if (it != kept.end()) return *it;
  if (kept.size() == kKept) kept.erase(kept.begin());
  kept.push_back(std::make_shared<const DistanceBands>(curve));
  return kept.back();
}

const DistanceBands::Bounds* DistanceBands::find(double d2) const {
  // The last band reaches the cutoff, where the exact path's `d > cutoff`
  // test decides; a zero cutoff makes x NaN or infinite.
  const double x = d2 * bands_per_m2_;
  if (!(x < static_cast<double>(kBands - 1))) return nullptr;
  return &bands_[static_cast<std::size_t>(x)];
}

double synthesize_rssi_dbm(double distance_m, Rng& rng) {
  // Log-distance path loss, exponent 2.8 (suburban), 8 dB shadowing.
  const double d = std::max(distance_m, 1.0);
  const double mean = -40.0 - 10.0 * 2.8 * std::log10(d);
  return mean + rng.normal(0.0, 4.0);
}

}  // namespace vifi::channel
