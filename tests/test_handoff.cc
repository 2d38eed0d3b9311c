// Unit tests for the six §3.1 handoff policies and the trace replayer.

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "handoff/policies.h"
#include "handoff/replay.h"
#include "trace/observations.h"
#include "util/contracts.h"

namespace vifi::handoff {
namespace {

using sim::NodeId;
using trace::BeaconObs;
using trace::MeasurementTrace;

/// A policy that returns the same per-second choices for any trip.
class FixedPolicy final : public HandoffPolicy {
 public:
  explicit FixedPolicy(std::vector<NodeId> choices)
      : choices_(std::move(choices)) {}
  std::vector<NodeId> choose(const MeasurementTrace&) override {
    return choices_;
  }

 private:
  std::vector<NodeId> choices_;
};

/// Builds a trace where BS0 is strong for the first half of the trip and
/// BS1 for the second half; beacons and probes agree, except that slot
/// \p deaf_slot's vehicle decodes no probe.
MeasurementTrace two_phase_trace(int seconds = 10, int deaf_slot = -1) {
  MeasurementTrace t;
  t.testbed = "synthetic";
  t.duration = Time::seconds(seconds);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  for (int s = 0; s < seconds; ++s) {
    const NodeId good = s < seconds / 2 ? NodeId(0) : NodeId(1);
    for (int i = 0; i < 10; ++i) {
      const Time at = Time::millis(s * 1000.0 + i * 100.0);
      const std::vector<NodeId> heard{good};
      // One 25 m grid cell per second of driving.
      t.add_slot(at, {s * 30.0, 0.0},
                 s * 10 + i == deaf_slot ? std::span<const NodeId>{} : heard,
                 heard);
      t.vehicle_beacons.push_back(
          {at + Time::millis(3.0), good, good == NodeId(0) ? -55.0 : -60.0});
    }
  }
  return t;
}

TEST(BrrPolicy, TracksTheStrongBs) {
  MeasurementTrace t = two_phase_trace(10);
  BrrPolicy policy;
  const std::vector<NodeId> choices = policy.choose(t);
  // Early in the trip: associated with BS0 (after a warm-up second).
  EXPECT_EQ(choices[2], NodeId(0));
  // Late in the trip: must have switched to BS1.
  EXPECT_EQ(choices[9], NodeId(1));
}

TEST(BrrPolicy, ReplayDeliversNearlyEverything) {
  // With one clearly best BS at all times, BRR should deliver almost all
  // packets except around the switch.
  MeasurementTrace t = two_phase_trace(10);
  BrrPolicy policy;
  const auto outcomes = replay_hard_handoff(t, policy);
  const auto delivered = packets_delivered(outcomes);
  // Loses only the warm-up second and the second around the switch.
  EXPECT_GE(delivered, 2 * 75);
  EXPECT_LE(delivered, 2 * 100);
}

TEST(RssiPolicy, PrefersStrongerSignal) {
  // 20 s trace: the first-half BS (stronger RSSI while alive) must be
  // dropped once its beacons go stale, despite its higher average.
  MeasurementTrace t = two_phase_trace(20);
  RssiPolicy policy;
  const std::vector<NodeId> choices = policy.choose(t);
  EXPECT_EQ(choices[6], NodeId(0));
  EXPECT_EQ(choices[19], NodeId(1));
}

TEST(RssiPolicy, StaleBsesAreNotCandidates) {
  // BS0 beacons only in the first second, then silence; a fresh BS1
  // appears later. RSSI must not cling to the stale BS0 estimate.
  MeasurementTrace t;
  t.duration = Time::seconds(10.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  for (int i = 0; i < 10; ++i) {
    t.vehicle_beacons.push_back({Time::millis(i * 10.0), NodeId(0), -40.0});
    t.add_slot(Time::millis(i * 100.0), {}, {}, {});
  }
  for (int s = 1; s < 10; ++s)
    for (int i = 0; i < 10; ++i) {
      const Time at = Time::millis(s * 1000.0 + i * 100.0);
      t.add_slot(at, {}, {}, {});
      if (s >= 7)
        t.vehicle_beacons.push_back({at + Time::millis(1.0), NodeId(1), -80.0});
    }
  RssiPolicy policy;
  const std::vector<NodeId> choices = policy.choose(t);
  EXPECT_EQ(choices[9], NodeId(1));  // weak but fresh beats stale
}

TEST(StickyPolicy, HoldsThroughShortSilence) {
  // BS0 goes silent for 2 s (shorter than the 3 s threshold): Sticky must
  // not switch.
  MeasurementTrace t;
  t.duration = Time::seconds(8.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  for (int s = 0; s < 8; ++s)
    for (int i = 0; i < 10; ++i) {
      const Time at = Time::millis(s * 1000.0 + i * 100.0);
      t.add_slot(at, {}, {}, {});
      const bool bs0_silent = s >= 3 && s < 5;
      if (!bs0_silent) t.vehicle_beacons.push_back({at, NodeId(0), -50.0});
      t.vehicle_beacons.push_back({at, NodeId(1), -65.0});
    }
  StickyPolicy policy;
  const std::vector<NodeId> choices = policy.choose(t);
  EXPECT_EQ(choices[2], NodeId(0));
  EXPECT_EQ(choices[4], NodeId(0));  // silent but within 3 s
  EXPECT_EQ(choices[7], NodeId(0));  // came back
}

TEST(StickyPolicy, SwitchesAfterLongSilence) {
  MeasurementTrace t;
  t.duration = Time::seconds(10.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  for (int s = 0; s < 10; ++s)
    for (int i = 0; i < 10; ++i) {
      const Time at = Time::millis(s * 1000.0 + i * 100.0);
      t.add_slot(at, {}, {}, {});
      if (s < 2) t.vehicle_beacons.push_back({at, NodeId(0), -50.0});
      t.vehicle_beacons.push_back({at, NodeId(1), -65.0});
    }
  StickyPolicy policy;
  const std::vector<NodeId> choices = policy.choose(t);
  EXPECT_EQ(choices[1], NodeId(0));
  EXPECT_EQ(choices[9], NodeId(1));  // switched after 3 s silence
}

TEST(BestBsPolicy, PicksTheOracleBest) {
  MeasurementTrace t = two_phase_trace(10);
  BestBsPolicy policy;
  const std::vector<NodeId> choices = policy.choose(t);
  // No warm-up needed: it reads the future.
  EXPECT_EQ(choices[0], NodeId(0));
  EXPECT_EQ(choices[9], NodeId(1));
}

TEST(BestBsPolicy, UpperBoundsPracticalPolicies) {
  const MeasurementTrace t = two_phase_trace(20);
  BestBsPolicy best;
  BrrPolicy brr;
  StickyPolicy sticky;
  const auto d_best = packets_delivered(replay_hard_handoff(t, best));
  const auto d_brr = packets_delivered(replay_hard_handoff(t, brr));
  const auto d_sticky = packets_delivered(replay_hard_handoff(t, sticky));
  EXPECT_GE(d_best, d_brr);
  EXPECT_GE(d_best, d_sticky);
}

TEST(HistoryPolicy, UsesPreviousDayAtSameLocation) {
  // Day 0 and day 1 have identical geometry; History on day 1 should pick
  // the per-location winner instantly (no warm-up lag).
  trace::Campaign campaign;
  campaign.trips.push_back(two_phase_trace(10));
  campaign.trips[0].day = 0;
  MeasurementTrace day1 = two_phase_trace(10);
  day1.day = 1;
  campaign.trips.push_back(day1);

  const HistoryTables tables(campaign);
  HistoryPolicy policy(tables);
  const MeasurementTrace& today = campaign.trips[1];
  const std::vector<NodeId> choices = policy.choose(today);
  EXPECT_EQ(choices[0], NodeId(0));  // immediately correct
  EXPECT_EQ(choices[9], NodeId(1));
}

TEST(AllBses, UnionDeliversEverythingAnyBsGot) {
  // Damage BS-specific reception: BS0 is missing from one slot's down list.
  const MeasurementTrace t = two_phase_trace(6, /*deaf_slot=*/5);
  const auto outcomes = replay_allbses(t);
  EXPECT_FALSE(outcomes[5].down);
  EXPECT_TRUE(outcomes[6].down);
  const auto delivered = packets_delivered(outcomes);
  EXPECT_EQ(delivered, 2 * 60 - 1);
}

TEST(AllBses, DominatesEveryHardHandoffPolicy) {
  const MeasurementTrace t = two_phase_trace(20);
  const auto d_all = packets_delivered(replay_allbses(t));
  BestBsPolicy best;
  EXPECT_GE(d_all, packets_delivered(replay_hard_handoff(t, best)));
}

TEST(AllBses, RestrictedToKBses) {
  // With the per-second best-k restriction, k = 1 equals BestBS-like
  // behaviour and k = all equals the full union.
  const MeasurementTrace t = two_phase_trace(10);
  const auto d1 = packets_delivered(replay_allbses(t, 1));
  const auto d2 = packets_delivered(replay_allbses(t, 2));
  const auto dall = packets_delivered(replay_allbses(t));
  EXPECT_LE(d1, d2);
  EXPECT_EQ(d2, dall);  // only two BSes exist
}

TEST(Replay, UnassociatedSlotsDeliverNothing) {
  MeasurementTrace t = two_phase_trace(4);
  // A policy that never associates: an invalid BS for every second.
  FixedPolicy null_policy(std::vector<NodeId>(4));
  EXPECT_EQ(packets_delivered(replay_hard_handoff(t, null_policy)), 0);
}

TEST(Replay, SlotsPastTheLastFullSecondUseTheLastChoice) {
  // A 2 s trip whose probe log runs 2 s past its duration; each slot is
  // heard by one BS only, so delivery shows which choice served it.
  const NodeId first(3), last(7);
  MeasurementTrace t;
  t.duration = Time::seconds(2.0);
  t.bs_ids = {first, last};
  for (int s = 0; s < 4; ++s) {
    const std::vector<NodeId> heard{s == 0 ? first : last};
    t.add_slot(Time::millis(s * 1000.0 + 500.0), {}, heard, heard);
  }
  FixedPolicy policy({first, last});
  const auto outcomes = replay_hard_handoff(t, policy);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const SlotOutcome& o : outcomes) EXPECT_EQ(o.delivered(), 2);
}

TEST(Replay, PolicyWithTooFewChoicesIsAContractViolation) {
  const MeasurementTrace t = two_phase_trace(4);
  FixedPolicy short_policy({NodeId(0), NodeId(0), NodeId(1)});
  EXPECT_THROW(replay_hard_handoff(t, short_policy), ContractViolation);
}

TEST(Replay, NoChoicesForAZeroSecondTripDeliverNothing) {
  MeasurementTrace t = two_phase_trace(1);
  t.duration = Time::zero();  // seconds() == 0: no choice is owed.
  FixedPolicy empty(std::vector<NodeId>{});
  EXPECT_EQ(packets_delivered(replay_hard_handoff(t, empty)), 0);
}

}  // namespace
}  // namespace vifi::handoff
