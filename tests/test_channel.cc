// Unit tests for the channel models: two-state processes, distance curve,
// the composite vehicular channel, and the trace-driven loss schedule.
// Includes the calibration properties behind Figs. 5 and 6.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "channel/distance_loss.h"
#include "channel/markov.h"
#include "channel/trace_driven.h"
#include "channel/vehicular.h"
#include "mobility/vec2.h"
#include "util/contracts.h"

namespace vifi::channel {
namespace {

using mobility::Vec2;
using sim::NodeId;

// -------------------------------------------------------- TwoStateProcess --

TEST(TwoStateProcess, StationaryFraction) {
  Rng r(1);
  TwoStateProcess p(Time::seconds(1.0), Time::seconds(3.0), true, r);
  EXPECT_NEAR(p.stationary_on_fraction(), 0.25, 1e-12);
}

TEST(TwoStateProcess, LongRunOnFractionMatchesStationary) {
  Rng r(2);
  TwoStateProcess p =
      TwoStateProcess::stationary(Time::seconds(2.0), Time::seconds(6.0), r);
  int on = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (p.on_at(Time::millis(10.0 * i))) ++on;
  }
  EXPECT_NEAR(static_cast<double>(on) / n, 0.25, 0.02);
}

TEST(TwoStateProcess, StateIsPersistentAtShortLags) {
  // Consecutive 10 ms samples should almost always agree when sojourn
  // times are seconds long — that's what makes losses bursty.
  Rng r(3);
  TwoStateProcess p =
      TwoStateProcess::stationary(Time::seconds(2.0), Time::seconds(2.0), r);
  int flips = 0;
  bool prev = p.on_at(Time::zero());
  for (int i = 1; i < 10000; ++i) {
    const bool cur = p.on_at(Time::millis(10.0 * i));
    if (cur != prev) ++flips;
    prev = cur;
  }
  EXPECT_LT(flips, 200);
}

TEST(TwoStateProcess, NonMonotoneQueryThrows) {
  Rng r(4);
  TwoStateProcess p(Time::seconds(1.0), Time::seconds(1.0), true, r);
  p.on_at(Time::seconds(5.0));
  EXPECT_THROW(p.on_at(Time::seconds(4.0)), ContractViolation);
}

TEST(TwoStateProcess, DeterministicForSameSeed) {
  TwoStateProcess a =
      TwoStateProcess::stationary(Time::seconds(1), Time::seconds(1), Rng(7));
  TwoStateProcess b =
      TwoStateProcess::stationary(Time::seconds(1), Time::seconds(1), Rng(7));
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(a.on_at(Time::millis(5.0 * i)), b.on_at(Time::millis(5.0 * i)));
}

// ------------------------------------------------------ DistanceLossCurve --

TEST(DistanceLossCurve, NearFieldIsNearPMax) {
  // The wide logistic shoulder means even d = 0 sits slightly below p_max
  // (outdoor WiFi is never loss-free, Fig. 6b's P(A) = 0.75 at a *chosen*
  // nearby BS).
  DistanceLossCurve c;
  EXPECT_GT(c.reception_prob(0.0), 0.88);
  EXPECT_LE(c.reception_prob(0.0), c.params().p_max);
}

TEST(DistanceLossCurve, HalvesAtMidpoint) {
  DistanceLossCurve c;
  EXPECT_NEAR(c.reception_prob(c.params().midpoint_m),
              c.params().p_max / 2.0, 1e-9);
}

TEST(DistanceLossCurve, MonotoneDecreasing) {
  DistanceLossCurve c;
  double prev = 1.1;
  for (double d = 0.0; d < 400.0; d += 10.0) {
    const double p = c.reception_prob(d);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(DistanceLossCurve, CutoffIsNegligible) {
  DistanceLossCurve c;
  EXPECT_LE(c.reception_prob(c.cutoff_m()), 1.1e-3);
}

TEST(DistanceLossCurve, NegativeDistanceThrows) {
  DistanceLossCurve c;
  EXPECT_THROW(c.reception_prob(-1.0), vifi::ContractViolation);
}

TEST(DistanceLossCurve, RangeForInvertsTheCurve) {
  DistanceLossCurve c;
  for (const double p : {0.9, 0.5, 0.1, 0.05, 0.01, 1e-3}) {
    const double d = c.range_for(p);
    EXPECT_NEAR(c.reception_prob(d), p, 1e-9) << "p = " << p;
    // One meter past the range is strictly below p — the sub-audibility
    // proof spatial culling rests on.
    EXPECT_LT(c.reception_prob(d + 1.0), p) << "p = " << p;
  }
}

TEST(DistanceLossCurve, RangeForIsMonotoneInThreshold) {
  DistanceLossCurve c;
  EXPECT_GT(c.range_for(0.01), c.range_for(0.05));
  EXPECT_GT(c.range_for(0.05), c.range_for(0.5));
}

TEST(DistanceLossCurve, RangeForUnreachableThresholdIsZero) {
  DistanceLossCurve c;
  // Even distance zero sits below p_max, so a p_max threshold (or higher)
  // is unreachable: the whole plane is sub-threshold.
  EXPECT_EQ(c.range_for(c.params().p_max), 0.0);
  EXPECT_EQ(c.range_for(0.999), 0.0);
}

TEST(SynthesizeRssi, DecreasesWithDistance) {
  Rng r(5);
  double near = 0.0, far = 0.0;
  for (int i = 0; i < 200; ++i) {
    near += synthesize_rssi_dbm(10.0, r);
    far += synthesize_rssi_dbm(200.0, r);
  }
  EXPECT_GT(near / 200, far / 200 + 10.0);
}

// -------------------------------------------------------- VehicularChannel --

VehicularChannel::PositionFn static_positions(double separation) {
  return [separation](NodeId id, Time) {
    return id.value() == 0 ? Vec2{0.0, 0.0} : Vec2{separation, 0.0};
  };
}

TEST(VehicularChannel, RejectsInvalidParamsAtConstruction) {
  // Culling and the channel's bounds assume every multiplier is in [0, 1];
  // a zero sojourn mean would otherwise throw only at the first frame.
  using Params = VehicularChannelParams;
  const auto builds = [](const Params& p) {
    VehicularChannel ch(p, static_positions(50.0), Rng(3));
  };
  EXPECT_NO_THROW(builds(Params{}));
  const std::vector<void (*)(Params&)> bad = {
      [](Params& p) { p.ge_bad_multiplier = 1.5; },
      [](Params& p) { p.ge_bad_multiplier = -0.1; },
      [](Params& p) { p.gray_multiplier = 1.0 + 1e-12; },
      [](Params& p) { p.gray_multiplier = std::nan(""); },
      [](Params& p) { p.common_multiplier = 2.0; },
      [](Params& p) { p.ge_mean_good = Time::zero(); },
      [](Params& p) { p.ge_mean_bad = Time::zero(); },
      [](Params& p) { p.gray_mean_off = Time::zero(); },
      [](Params& p) { p.gray_mean_on = Time::seconds(-1.0); },
      [](Params& p) { p.common_mean_off = Time::zero(); },
      [](Params& p) { p.common_mean_on = Time::zero(); },
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    Params p;
    bad[i](p);
    EXPECT_THROW(builds(p), vifi::ContractViolation) << "field " << i;
  }
  // The bounds of the interval are valid multipliers.
  Params edges;
  edges.ge_bad_multiplier = 0.0;
  edges.gray_multiplier = 1.0;
  EXPECT_NO_THROW(builds(edges));
}

TEST(VehicularChannel, CloseLinkDeliversMost) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(20.0), Rng(11));
  int got = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (ch.sample_delivery(NodeId(0), NodeId(1), Time::millis(10.0 * i)))
      ++got;
  const double rate = static_cast<double>(got) / n;
  // Even next to a BS the vehicular channel is lossy — the paper measures
  // P(A) = 0.75 for a chosen nearby BS (Fig. 6b); burst fading and gray
  // periods shave a lot off p_max.
  EXPECT_GT(rate, 0.55);
  EXPECT_LT(rate, 0.95);
}

TEST(VehicularChannel, FarLinkDeliversNothing) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(1000.0), Rng(13));
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(
        ch.sample_delivery(NodeId(0), NodeId(1), Time::millis(10.0 * i)));
}

TEST(VehicularChannel, LossesAreBursty) {
  // P(loss_{i+1} | loss_i) must clearly exceed the unconditional loss —
  // the core Fig. 6(a) structure.
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(60.0), Rng(17));
  std::vector<bool> rx;
  const int n = 200000;
  rx.reserve(n);
  for (int i = 0; i < n; ++i)
    rx.push_back(
        ch.sample_delivery(NodeId(0), NodeId(1), Time::millis(10.0 * i)));
  int losses = 0, pairs = 0, both = 0;
  for (int i = 0; i + 1 < n; ++i) {
    if (!rx[static_cast<std::size_t>(i)]) {
      ++losses;
      ++pairs;
      if (!rx[static_cast<std::size_t>(i) + 1]) ++both;
    }
  }
  const double uncond = static_cast<double>(losses) / n;
  const double cond = static_cast<double>(both) / pairs;
  // Conditional loss clearly exceeds unconditional: the Fig. 6(a) core.
  EXPECT_GT(cond, 1.35 * uncond);
  EXPECT_GT(cond, 0.55);
}

TEST(VehicularChannel, LossesRoughlyIndependentAcrossBSes) {
  // Two BSes at the same distance from a receiver: conditional reception
  // from B after a loss from A should be close to unconditional (§3.4.2).
  VehicularChannelParams params;
  auto positions = [](NodeId id, Time) {
    if (id.value() == 0) return Vec2{0.0, 0.0};     // A
    if (id.value() == 1) return Vec2{100.0, 0.0};   // B
    return Vec2{50.0, 40.0};                        // receiver
  };
  VehicularChannel ch(params, positions, Rng(19));
  ch.mark_mobile(NodeId(2));
  int n = 150000;
  int b_got = 0, a_lost = 0, b_got_after_a_lost = 0;
  bool prev_a_lost = false;
  for (int i = 0; i < n; ++i) {
    const Time t = Time::millis(20.0 * i);
    const bool a = ch.sample_delivery(NodeId(0), NodeId(2), t);
    const bool b =
        ch.sample_delivery(NodeId(1), NodeId(2), t + Time::millis(10.0));
    if (b) ++b_got;
    if (prev_a_lost) {
      ++a_lost;
      if (b) ++b_got_after_a_lost;
    }
    prev_a_lost = !a;
  }
  const double p_b = static_cast<double>(b_got) / n;
  const double p_b_cond = static_cast<double>(b_got_after_a_lost) / a_lost;
  // Slightly lower than unconditional (common-mode fade) but nowhere near
  // the collapse seen on the same path.
  EXPECT_GT(p_b_cond, 0.6 * p_b);
  EXPECT_LE(p_b_cond, p_b + 0.05);
}

TEST(VehicularChannel, ReceptionProbMatchesEmpiricalRate) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(120.0), Rng(23));
  // Average the instantaneous probability and compare with realized rate.
  double psum = 0.0;
  int got = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const Time t = Time::millis(10.0 * i);
    psum += ch.reception_prob(NodeId(0), NodeId(1), t);
    if (ch.sample_delivery(NodeId(0), NodeId(1), t)) ++got;
  }
  EXPECT_NEAR(psum / n, static_cast<double>(got) / n, 0.02);
}

TEST(VehicularChannel, GeometricProbIgnoresFades) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(params.distance.midpoint_m),
                      Rng(29));
  EXPECT_NEAR(ch.geometric_reception_prob(NodeId(0), NodeId(1), Time::zero()),
              params.distance.p_max / 2.0, 1e-9);
}

TEST(VehicularChannel, DeterministicForSameSeed) {
  VehicularChannelParams params;
  VehicularChannel a(params, static_positions(80.0), Rng(31));
  VehicularChannel b(params, static_positions(80.0), Rng(31));
  for (int i = 0; i < 5000; ++i) {
    const Time t = Time::millis(10.0 * i);
    EXPECT_EQ(a.sample_delivery(NodeId(0), NodeId(1), t),
              b.sample_delivery(NodeId(0), NodeId(1), t));
  }
}

TEST(VehicularChannel, FusedSampleMatchesProbabilityThenDraw) {
  // The reference is the exact probability, then one bernoulli draw on the
  // channel's own draw stream: sample() must reproduce both answers and
  // draw exactly when the reference draws.
  VehicularChannelParams params;
  const auto positions = [](NodeId id, Time t) {
    return Vec2{id.value() * 45.0 + 6.0 * t.to_seconds(), 20.0 * id.value()};
  };
  VehicularChannel fused(params, positions, Rng(61));
  VehicularChannel exact(params, positions, Rng(61));
  Rng draws = Rng(61).fork("per-packet-draws");
  for (VehicularChannel* ch : {&fused, &exact}) {
    ch->mark_mobile(NodeId(3));
    ch->mark_mobile(NodeId(4));
  }
  int audible = 0, delivered = 0;
  for (int i = 0; i < 3000; ++i) {
    const Time t = Time::millis(7.0 * i);
    const NodeId tx(i % 5);
    for (int r = 0; r < 5; ++r) {
      if (r == tx.value()) continue;
      const double prob = exact.reception_prob(tx, NodeId(r), t);
      const Reception got = fused.sample(tx, NodeId(r), t, 0.05);
      ASSERT_EQ(got.audible, prob >= 0.05) << i;
      ASSERT_EQ(got.delivered, draws.bernoulli(prob)) << i;
      audible += got.audible;
      delivered += got.delivered;
    }
  }
  EXPECT_GT(audible, 0);
  EXPECT_GT(delivered, 0);
  // The streams are still in step.
  EXPECT_EQ(fused.sample_delivery(NodeId(0), NodeId(1), Time::seconds(30)),
            draws.bernoulli(exact.reception_prob(NodeId(0), NodeId(1),
                                                 Time::seconds(30))));
}

TEST(VehicularChannel, EvaluatesEachPositionOncePerInstant) {
  VehicularChannelParams params;
  int calls = 0;
  VehicularChannel ch(
      params,
      [&calls](NodeId id, Time) {
        ++calls;
        return Vec2{id.value() * 30.0, 0.0};
      },
      Rng(67));
  // One transmit instant: the transmitter once, each receiver once.
  for (int r = 1; r <= 5; ++r)
    ch.sample(NodeId(0), NodeId(r), Time::millis(10), 0.05);
  EXPECT_EQ(calls, 6);
  EXPECT_GT(ch.reception_prob(NodeId(2), NodeId(1), Time::millis(10)), 0.0);
  EXPECT_EQ(calls, 6);
  ch.sample(NodeId(0), NodeId(1), Time::millis(11), 0.05);
  EXPECT_EQ(calls, 8);
}

// --------------------------------------------------------- TraceLossModel --

TEST(TraceLossModel, FusedSampleMatchesProbabilityThenDraw) {
  TraceLossModel fused(Rng(71)), split(Rng(71));
  for (TraceLossModel* m : {&fused, &split}) {
    m->set_loss_rate(NodeId(0), NodeId(1), 0, 0.3);
    m->set_loss_rate(NodeId(0), NodeId(1), 1, 0.8);
    m->set_constant_loss_rate(NodeId(1), NodeId(2), 0.5);
  }
  for (int i = 0; i < 4000; ++i) {
    const Time t = Time::millis(0.5 * i);
    for (const auto& [tx, rx] : {std::pair{0, 1}, {1, 0}, {2, 1}, {0, 2}}) {
      const Reception got = fused.sample(NodeId(tx), NodeId(rx), t, 0.5);
      ASSERT_EQ(got.audible,
                split.reception_prob(NodeId(tx), NodeId(rx), t) >= 0.5);
      ASSERT_EQ(got.delivered,
                split.sample_delivery(NodeId(tx), NodeId(rx), t));
    }
  }
}

TEST(TraceLossModel, UnknownPairsAreUnreachable) {
  TraceLossModel m(Rng(37));
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(1), Time::zero()), 1.0);
  EXPECT_FALSE(m.sample_delivery(NodeId(0), NodeId(1), Time::zero()));
}

TEST(TraceLossModel, PerSecondScheduleLookup) {
  TraceLossModel m(Rng(41));
  m.set_loss_rate(NodeId(0), NodeId(1), 0, 0.25);
  m.set_loss_rate(NodeId(0), NodeId(1), 1, 0.75);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(1), Time::millis(500.0)),
                   0.25);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(1), Time::millis(1500.0)),
                   0.75);
  // Symmetric by construction (§5.1).
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(1), NodeId(0), Time::millis(500.0)),
                   0.25);
}

TEST(TraceLossModel, ConstantRateFillsGaps) {
  TraceLossModel m(Rng(43));
  m.set_constant_loss_rate(NodeId(2), NodeId(3), 0.5);
  m.set_loss_rate(NodeId(2), NodeId(3), 2, 0.1);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(2), NodeId(3), Time::seconds(0.5)), 0.5);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(2), NodeId(3), Time::seconds(2.5)), 0.1);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(2), NodeId(3), Time::seconds(9.0)), 0.5);
}

TEST(TraceLossModel, SampleRateMatchesSchedule) {
  TraceLossModel m(Rng(47));
  m.set_constant_loss_rate(NodeId(0), NodeId(1), 0.3);
  int got = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (m.sample_delivery(NodeId(0), NodeId(1), Time::millis(i))) ++got;
  EXPECT_NEAR(static_cast<double>(got) / n, 0.7, 0.02);
}

TEST(TraceLossModel, HorizonTracksLongestSchedule) {
  TraceLossModel m(Rng(53));
  EXPECT_EQ(m.horizon_seconds(), 0);
  m.set_loss_rate(NodeId(0), NodeId(1), 41, 0.5);
  EXPECT_EQ(m.horizon_seconds(), 42);
}

TEST(TraceLossModel, RejectsOutOfRangeInputs) {
  TraceLossModel m(Rng(59));
  EXPECT_THROW(m.set_loss_rate(NodeId(0), NodeId(1), -1, 0.5),
               vifi::ContractViolation);
  EXPECT_THROW(m.set_loss_rate(NodeId(0), NodeId(1), 0, 1.5),
               vifi::ContractViolation);
}

}  // namespace
}  // namespace vifi::channel
