// Property test for the vehicular channel's bounds-first sampling. Over
// randomized schedules, `sample` and `sample_delivery` must give exactly the
// answers and the draws of the reference: the exact `reception_prob`, then
// one `Rng::bernoulli` on the channel's draw stream,
// `Rng(seed).fork("per-packet-draws")`. Link lengths are drawn where a bound
// could be betrayed by rounding: at the edges of the distance bands, at the
// cutoff and at the band that touches it, each nudged by a few ulps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "channel/vehicular.h"
#include "mobility/vec2.h"
#include "util/rng.h"

namespace vifi::channel {
namespace {

using mobility::Vec2;
using sim::NodeId;

constexpr int kSchedules = 1200;
/// The band count of the channel's distance table, whose edges are probed.
constexpr double kBands = 4096.0;

double nudge(double d, int ulps) {
  for (; ulps > 0; --ulps) d = std::nextafter(d, INFINITY);
  for (; ulps < 0; ++ulps) d = std::nextafter(d, 0.0);
  return d;
}

/// A link length near a place where the bounds change hands.
double probe_length(Rng& rng, double cutoff) {
  const int ulps = static_cast<int>(rng.uniform_int(-4, 4));
  switch (rng.uniform_int(0, 5)) {
    case 0: {  // a band edge
      const double i = static_cast<double>(rng.uniform_int(0, 4096));
      return nudge(cutoff * std::sqrt(i / kBands), ulps);
    }
    case 1:  // the cutoff
      return nudge(cutoff, ulps);
    case 2:  // where the cheap beyond-the-cutoff test starts
      return nudge(cutoff * std::sqrt(1.0 + 1e-9), ulps);
    case 3:  // the start of the band that touches the cutoff
      return nudge(cutoff * std::sqrt((kBands - 1.0) / kBands), ulps);
    case 4:
      return 0.0;
    default:
      return rng.uniform(0.0, 1.3 * cutoff);
  }
}

double pick_multiplier(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return 0.0;
    case 1: return 1.0;
    default: return rng.uniform01();
  }
}

VehicularChannelParams random_params(Rng& rng) {
  VehicularChannelParams p;
  switch (rng.uniform_int(0, 3)) {
    case 0: break;  // the VanLAN calibration
    case 1:         // p_max = 1 with a sharp shoulder: the curve hits 1.0
      p.distance.p_max = 1.0;
      p.distance.width_m = rng.uniform(0.5, 4.0);
      break;
    case 2:  // p_max below the cutoff level: a zero cutoff
      p.distance.p_max = 5e-4;
      break;
    default:
      p.distance.p_max = rng.uniform(0.01, 1.0);
      p.distance.midpoint_m = rng.uniform(20.0, 300.0);
      p.distance.width_m = rng.uniform(1.0, 80.0);
  }
  p.ge_bad_multiplier = pick_multiplier(rng);
  p.gray_multiplier = pick_multiplier(rng);
  p.common_multiplier = pick_multiplier(rng);
  // Short sojourns, so the fade states flip within a schedule.
  const auto mean = [&rng] { return Time::seconds(rng.uniform(0.05, 3.0)); };
  p.ge_mean_good = mean();
  p.ge_mean_bad = mean();
  p.gray_mean_off = mean();
  p.gray_mean_on = mean();
  p.common_mean_off = mean();
  p.common_mean_on = mean();
  return p;
}

/// Node positions per instant: a pure function of (node, time), as the
/// channel requires. Node 0 sits at an anchor; every other node sits at a
/// probe length from it, so the links to node 0 land on the probes.
struct Positions {
  std::vector<Time> times;              // distinct, increasing
  std::vector<std::vector<Vec2>> at;    // [instant][node]

  Vec2 operator()(NodeId n, Time t) const {
    const auto it = std::lower_bound(times.begin(), times.end(), t);
    EXPECT_TRUE(it != times.end() && *it == t);
    return at[static_cast<std::size_t>(it - times.begin())]
             [static_cast<std::size_t>(n.value())];
  }
};

std::vector<Vec2> place(Rng& rng, int nodes, double cutoff,
                        double fixed_length = -1.0) {
  const Vec2 anchor = rng.bernoulli(0.5)
                          ? Vec2{}
                          : Vec2{rng.uniform(-2000.0, 2000.0),
                                 rng.uniform(-2000.0, 2000.0)};
  std::vector<Vec2> out{anchor};
  for (int j = 1; j < nodes; ++j) {
    const double d = fixed_length >= 0.0 ? fixed_length
                                         : probe_length(rng, cutoff);
    Vec2 dir{1.0, 0.0};
    if (rng.bernoulli(0.5)) {
      const double a = rng.uniform(0.0, 6.283185307179586);
      dir = {std::cos(a), std::sin(a)};
    }
    out.push_back(anchor + dir * d);
  }
  return out;
}

TEST(ChannelProperties, BoundsFirstSamplingMatchesExactProbabilityThenDraw) {
  long audible = 0, inaudible = 0, delivered = 0, lost = 0;
  long certain = 0, impossible = 0, trailing_checked = 0;
  for (int s = 0; s < kSchedules; ++s) {
    Rng rng = Rng(9000 + static_cast<std::uint64_t>(s)).fork("schedule");
    const VehicularChannelParams params = random_params(rng);
    const double cutoff = DistanceLossCurve(params.distance).cutoff_m();
    const int nodes = static_cast<int>(rng.uniform_int(2, 6));

    auto pos = std::make_shared<Positions>();
    const int steps = static_cast<int>(rng.uniform_int(20, 60));
    std::vector<Time> step_time;
    Time t = Time::zero();
    for (int k = 0; k < steps; ++k) {
      static const double kGaps[] = {0.0, 0.001, 0.05, 1.7};
      t += Time::seconds(kGaps[rng.uniform_int(0, 3)]);
      step_time.push_back(t);
      if (pos->times.empty() || pos->times.back() != t) {
        pos->times.push_back(t);
        pos->at.push_back(place(rng, nodes, cutoff));
      }
    }
    // The trailing instant puts node 1 at the curve's midpoint.
    const Time t_end = t + Time::seconds(1.0);
    pos->times.push_back(t_end);
    pos->at.push_back(place(rng, nodes, cutoff, params.distance.midpoint_m));

    const auto position_fn = [pos](NodeId n, Time at) { return (*pos)(n, at); };
    const Rng seed(static_cast<std::uint64_t>(s) * 7919 + 1);
    VehicularChannel fast(params, position_fn, seed);
    VehicularChannel exact(params, position_fn, seed);
    Rng draws = seed.fork("per-packet-draws");
    for (int n = 0; n < nodes; ++n)
      if (rng.bernoulli(0.5)) {
        fast.mark_mobile(NodeId(n));
        exact.mark_mobile(NodeId(n));
      }

    for (int k = 0; k < steps; ++k) {
      const Time now = step_time[static_cast<std::size_t>(k)];
      const NodeId tx(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      for (int r = 0; r < nodes; ++r) {
        if (r == tx.value()) continue;
        const NodeId rx(r);
        const double p = exact.reception_prob(tx, rx, now);
        certain += p >= 1.0;
        impossible += p <= 0.0;
        const bool want = draws.bernoulli(p);
        const auto which = rng.uniform_int(0, 4);
        if (which == 0) {
          ASSERT_EQ(fast.sample_delivery(tx, rx, now), want)
              << "schedule " << s << " step " << k << " p " << p;
        } else {
          static const double kThresholds[] = {0.05, 1.5, 0.0};
          const double audible_at =
              which == 4 ? rng.uniform01() : kThresholds[which - 1];
          const Reception got = fast.sample(tx, rx, now, audible_at);
          ASSERT_EQ(got.audible, p >= audible_at)
              << "schedule " << s << " step " << k << " p " << p
              << " audible_at " << audible_at;
          ASSERT_EQ(got.delivered, want)
              << "schedule " << s << " step " << k << " p " << p;
          ++(got.audible ? audible : inaudible);
        }
        ++(want ? delivered : lost);
      }
    }

    // A trailing run of draws: both streams must still be in step.
    const double p_end = exact.reception_prob(NodeId(0), NodeId(1), t_end);
    trailing_checked += p_end > 0.05 && p_end < 0.95;
    for (int k = 0; k < 32; ++k)
      ASSERT_EQ(fast.sample_delivery(NodeId(0), NodeId(1), t_end),
                draws.bernoulli(p_end))
          << "schedule " << s << " trailing draw " << k;
  }
  // The schedules reach every outcome and both no-draw edges.
  EXPECT_GT(audible, 1000);
  EXPECT_GT(inaudible, 1000);
  EXPECT_GT(delivered, 1000);
  EXPECT_GT(lost, 1000);
  EXPECT_GT(certain, 100);
  EXPECT_GT(impossible, 1000);
  EXPECT_GT(trailing_checked, kSchedules / 4);
}

}  // namespace
}  // namespace vifi::channel
