// Unit tests for session extraction, burstiness statistics, and diversity
// CDFs.

#include <gtest/gtest.h>

#include "analysis/burst.h"
#include "analysis/diversity.h"
#include "analysis/sessions.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace vifi::analysis {
namespace {

SlotStream stream_from(std::vector<int> delivered) {
  SlotStream s;
  s.delivered = std::move(delivered);
  return s;
}

TEST(IntervalRatios, OneSecondBuckets) {
  // 10 slots per 1 s interval, 2 packets per slot.
  std::vector<int> d(20, 2);
  for (std::size_t i = 10; i < 20; ++i) d[i] = 1;
  const auto ratios = interval_ratios(stream_from(d), Time::seconds(1.0));
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_DOUBLE_EQ(ratios[0], 1.0);
  EXPECT_DOUBLE_EQ(ratios[1], 0.5);
}

TEST(IntervalRatios, PartialTrailingIntervalDropped) {
  const auto ratios =
      interval_ratios(stream_from(std::vector<int>(15, 2)),
                      Time::seconds(1.0));
  EXPECT_EQ(ratios.size(), 1u);
}

TEST(IntervalRatios, WiderInterval) {
  std::vector<int> d(40, 1);  // 50% everywhere
  const auto ratios = interval_ratios(stream_from(d), Time::seconds(2.0));
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_DOUBLE_EQ(ratios[0], 0.5);
}

TEST(IntervalRatios, IntervalSmallerThanSlotThrows) {
  EXPECT_THROW(
      interval_ratios(stream_from({1, 1}), Time::millis(10.0)),
      vifi::ContractViolation);
}

TEST(RunLengths, EmptyInputHasNoRuns) {
  EXPECT_TRUE(run_lengths({}, 0.5, 1.0).empty());
}

TEST(RunLengths, TrailingRunCountsAndThresholdIsInclusive) {
  // Runs: [0.5, 0.9] closed by 0.1, then [0.7, 1.0, 0.5] open at the end.
  EXPECT_EQ(run_lengths({0.5, 0.9, 0.1, 0.0, 0.7, 1.0, 0.5}, 0.5, 2.0),
            (std::vector<double>{4.0, 6.0}));
}

TEST(RunLengths, RunSpanningTheWholeInputIsOneRun) {
  EXPECT_EQ(run_lengths(std::vector<double>(5, 0.8), 0.5, 0.1).size(), 1u);
  // Summed step by step, as the session metrics always have.
  double want = 0.0;
  for (int i = 0; i < 5; ++i) want += 0.1;
  EXPECT_EQ(run_lengths(std::vector<double>(5, 0.8), 0.5, 0.1),
            (std::vector<double>{want}));
}

TEST(RunLengths, NonPositiveStepThrows) {
  EXPECT_THROW(run_lengths({1.0}, 0.5, 0.0), ContractViolation);
}

TEST(SessionLengths, SplitsOnInadequateIntervals) {
  // Seconds: good good bad good -> sessions of 2 s and 1 s.
  std::vector<int> d;
  auto push_second = [&d](int per_slot) {
    for (int i = 0; i < 10; ++i) d.push_back(per_slot);
  };
  push_second(2);
  push_second(2);
  push_second(0);
  push_second(2);
  const auto lengths =
      session_lengths_s(stream_from(d), SessionDef{});
  EXPECT_EQ(lengths, (std::vector<double>{2.0, 1.0}));
}

TEST(SessionLengths, ThresholdIsInclusive) {
  std::vector<int> d(10, 1);  // exactly 50%
  SessionDef def;
  def.min_ratio = 0.5;
  const auto lengths = session_lengths_s(stream_from(d), def);
  EXPECT_EQ(lengths, (std::vector<double>{1.0}));
}

TEST(SessionLengths, AllBadGivesNoSessions) {
  const auto lengths =
      session_lengths_s(stream_from(std::vector<int>(30, 0)), SessionDef{});
  EXPECT_TRUE(lengths.empty());
}

TEST(SessionLengths, StricterThresholdNeverLengthensSessions) {
  // Property: raising min_ratio cannot increase total session time.
  Rng rng(5);
  std::vector<int> d;
  d.reserve(600);
  for (int i = 0; i < 600; ++i)
    d.push_back(static_cast<int>(rng.uniform_int(0, 2)));
  double prev_total = 1e18;
  for (double thr : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    SessionDef def;
    def.min_ratio = thr;
    double total = 0.0;
    for (double s : session_lengths_s(stream_from(d), def)) total += s;
    EXPECT_LE(total, prev_total + 1e-9);
    prev_total = total;
  }
}

TEST(SessionTimeCdf, WeightsByLength) {
  const Cdf cdf = session_time_cdf({1.0, 3.0});
  // 1 of 4 connected seconds lives in the 1 s session.
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(3.0), 1.0);
}

TEST(MedianSessionLength, TimeWeighted) {
  // Sessions 1 s and 3 s: the median connected second is in the 3 s one.
  EXPECT_DOUBLE_EQ(median_session_length({1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_session_length({}), 0.0);
}

TEST(Timeline, MarksAdequateGapAndCoverageHole) {
  std::vector<int> d;
  auto push_second = [&d](int per_slot) {
    for (int i = 0; i < 10; ++i) d.push_back(per_slot);
  };
  push_second(2);  // '#'
  push_second(1);  // '#'  (50% >= threshold)
  push_second(0);  // ' '  (zero reception: out of coverage)
  d.insert(d.end(), {1, 0, 0, 0, 0, 0, 0, 0, 0, 0});  // '.'  (5% < 50%)
  push_second(2);  // '#'
  const Timeline tl = connectivity_timeline(stream_from(d), SessionDef{});
  EXPECT_EQ(tl.strip, "## .#");
  EXPECT_EQ(tl.interruptions, 1);
  EXPECT_DOUBLE_EQ(tl.adequate_s, 3.0);
}

TEST(Timeline, CountsDistinctInterruptions) {
  std::vector<int> d;
  auto push = [&d](int v, int n = 10) {
    for (int i = 0; i < n; ++i) d.push_back(v);
  };
  push(2);
  push(1, 5);
  push(0, 5);  // second 1: ratio 0.25 -> '.'
  push(2);
  push(1, 5);
  push(0, 5);  // '.'
  push(2);
  const Timeline tl = connectivity_timeline(stream_from(d), SessionDef{});
  EXPECT_EQ(tl.interruptions, 2);
}

// ------------------------------------------------------------- Burstiness --

TEST(Burst, UnconditionalLossRespectsMask) {
  ProbeSeries s;
  s.received = {true, false, true, false};
  s.in_range = {true, true, false, false};
  EXPECT_DOUBLE_EQ(unconditional_loss(s), 0.5);
}

TEST(Burst, ConditionalCurveDetectsBursts) {
  // Alternating long runs: loss at i strongly predicts loss at i+1.
  ProbeSeries s;
  for (int block = 0; block < 200; ++block) {
    const bool ok = block % 2 == 0;
    for (int i = 0; i < 50; ++i) s.received.push_back(ok);
  }
  s.in_range.assign(s.received.size(), true);
  const auto curve = conditional_loss_curve(s, {1, 49});
  EXPECT_GT(curve[0], 0.95);
  EXPECT_LT(curve[1], curve[0]);
  EXPECT_GT(curve[0], unconditional_loss(s));
}

TEST(Burst, IndependentSeriesHasFlatCurve) {
  ProbeSeries s;
  Rng r(7);
  for (int i = 0; i < 100000; ++i) s.received.push_back(r.bernoulli(0.7));
  s.in_range.assign(s.received.size(), true);
  const auto curve = conditional_loss_curve(s, {1, 10, 100});
  for (double c : curve) EXPECT_NEAR(c, 0.3, 0.02);
}

TEST(Burst, NoSupportFallsBackToUnconditional) {
  ProbeSeries s;
  s.received = {true, true, true};
  s.in_range = {true, true, true};
  const auto curve = conditional_loss_curve(s, {1});
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
}

TEST(Burst, PairConditionalsOnIndependentStreams) {
  PairSeries s;
  Rng r(11);
  for (int i = 0; i < 100000; ++i) {
    s.a_received.push_back(r.bernoulli(0.75));
    s.b_received.push_back(r.bernoulli(0.67));
    s.both_in_range.push_back(true);
  }
  const auto pc = pair_conditionals(s);
  EXPECT_NEAR(pc.p_a, 0.75, 0.01);
  EXPECT_NEAR(pc.p_b, 0.67, 0.01);
  // Independence: conditioning on the other BS's loss changes nothing.
  EXPECT_NEAR(pc.p_b_next_after_a_loss, 0.67, 0.02);
  EXPECT_NEAR(pc.p_a_next_after_b_loss, 0.75, 0.02);
}

TEST(Burst, PairConditionalsCaptureSameLinkBursts) {
  // A is strongly bursty: long good and bad runs.
  PairSeries s;
  for (int block = 0; block < 400; ++block) {
    const bool ok = block % 2 == 0;
    for (int i = 0; i < 25; ++i) {
      s.a_received.push_back(ok);
      s.b_received.push_back(true);
      s.both_in_range.push_back(true);
    }
  }
  const auto pc = pair_conditionals(s);
  EXPECT_LT(pc.p_a_next_after_a_loss, 0.1);  // bursts persist
  EXPECT_GT(pc.p_b_next_after_a_loss, 0.95); // other path unaffected
}

TEST(Burst, MismatchedSizesThrow) {
  ProbeSeries s;
  s.received = {true};
  s.in_range = {};
  EXPECT_THROW(unconditional_loss(s), vifi::ContractViolation);
}

// -------------------------------------------------------------- Diversity --

trace::MeasurementTrace visibility_trace() {
  trace::MeasurementTrace t;
  t.duration = Time::seconds(2.0);
  t.beacons_per_second = 10;
  t.bs_ids = {sim::NodeId(0), sim::NodeId(1)};
  // Second 0: BS0 9 beacons, BS1 2 beacons. Second 1: nothing.
  for (int i = 0; i < 9; ++i)
    t.vehicle_beacons.push_back({Time::millis(i * 10.0), sim::NodeId(0), -60});
  for (int i = 0; i < 2; ++i)
    t.vehicle_beacons.push_back({Time::millis(i * 10.0), sim::NodeId(1), -70});
  return t;
}

TEST(Diversity, AtLeastOneBeaconDefinition) {
  const Cdf cdf = visible_bs_cdf(visibility_trace(), 0.0);
  // Two seconds total: one with 2 visible BSes, one with 0.
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 1.0);
}

TEST(Diversity, FiftyPercentDefinitionIsStricter) {
  const Cdf cdf = visible_bs_cdf(visibility_trace(), 0.5);
  // Only BS0 clears 5 of 10 beacons in second 0.
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 1.0);
}

TEST(Diversity, CampaignPoolsTrips) {
  trace::Campaign c;
  c.trips.push_back(visibility_trace());
  c.trips.push_back(visibility_trace());
  const Cdf cdf = visible_bs_cdf(c, 0.0);
  EXPECT_EQ(cdf.sample_count(), 4u);
}

}  // namespace
}  // namespace vifi::analysis
