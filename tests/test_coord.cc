// CoordTier state-machine suite: every legal transition of the per-client
// connection/handoff machine asserted, every illegal (phase, event) pair
// rejected with a ContractViolation naming both, timeout/loss fallback
// edges, prediction-miss recovery, and the ConnectivityManager's
// behaviour on top (association, prediction, pre-staging, suppression,
// online learning, timeout scans).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coord/manager.h"
#include "coord/predictor.h"
#include "coord/state.h"
#include "core/config.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "runtime/experiment.h"
#include "scenario/testbed.h"
#include "sim/simulator.h"
#include "util/contracts.h"

namespace vifi::coord {
namespace {

using P = ClientPhase;
using E = CoordEvent;
using sim::NodeId;

// ------------------------------------------------ the pure transition table

/// The complete legal-edge set, the single source of truth this suite
/// cross-checks `next_phase` against (both directions: every listed edge
/// must hold, every unlisted pair must be rejected).
const std::map<std::pair<P, E>, P>& legal_edges() {
  static const std::map<std::pair<P, E>, P> edges{
      {{P::Idle, E::BeaconSeen}, P::Discovered},
      {{P::Discovered, E::BeaconSeen}, P::Discovered},
      {{P::Discovered, E::AnchorConfirmed}, P::Associated},
      {{P::Discovered, E::Timeout}, P::Idle},
      {{P::Associated, E::BeaconSeen}, P::Associated},
      {{P::Associated, E::AnchorConfirmed}, P::Associated},
      {{P::Associated, E::PredictionMade}, P::PredictedHandoff},
      {{P::Associated, E::AnchorLost}, P::Discovered},
      {{P::Associated, E::Timeout}, P::Idle},
      {{P::PredictedHandoff, E::BeaconSeen}, P::PredictedHandoff},
      {{P::PredictedHandoff, E::HandoffObserved}, P::HandedOff},
      {{P::PredictedHandoff, E::PredictionMiss}, P::Associated},
      {{P::PredictedHandoff, E::AnchorLost}, P::Discovered},
      {{P::PredictedHandoff, E::Timeout}, P::Idle},
      {{P::HandedOff, E::BeaconSeen}, P::HandedOff},
      {{P::HandedOff, E::AnchorConfirmed}, P::Associated},
      {{P::HandedOff, E::AnchorLost}, P::Discovered},
      {{P::HandedOff, E::Timeout}, P::Idle},
  };
  return edges;
}

/// Drives a fresh machine into \p phase through known-legal edges.
ClientStateMachine machine_in(P phase) {
  ClientStateMachine m;
  switch (phase) {
    case P::Idle:
      break;
    case P::Discovered:
      m.fire(E::BeaconSeen);
      break;
    case P::Associated:
      m.fire(E::BeaconSeen);
      m.fire(E::AnchorConfirmed);
      break;
    case P::PredictedHandoff:
      m.fire(E::BeaconSeen);
      m.fire(E::AnchorConfirmed);
      m.fire(E::PredictionMade);
      break;
    case P::HandedOff:
      m.fire(E::BeaconSeen);
      m.fire(E::AnchorConfirmed);
      m.fire(E::PredictionMade);
      m.fire(E::HandoffObserved);
      break;
  }
  EXPECT_EQ(m.phase(), phase);
  return m;
}

TEST(CoordState, EveryLegalTransitionLandsWhereTheTableSays) {
  for (const auto& [pair, to] : legal_edges()) {
    const auto [from, event] = pair;
    const auto next = next_phase(from, event);
    ASSERT_TRUE(next.has_value())
        << to_string(from) << " + " << to_string(event);
    EXPECT_EQ(*next, to) << to_string(from) << " + " << to_string(event);

    ClientStateMachine m = machine_in(from);
    const std::uint64_t before = m.transitions();
    EXPECT_EQ(m.fire(event), to);
    EXPECT_EQ(m.phase(), to);
    EXPECT_EQ(m.transitions(), before + 1);
  }
}

TEST(CoordState, EveryIllegalPairIsRejectedWithACrispError) {
  int illegal = 0;
  for (int p = 0; p < kClientPhaseCount; ++p) {
    for (int e = 0; e < kCoordEventCount; ++e) {
      const P phase = static_cast<P>(p);
      const E event = static_cast<E>(e);
      if (legal_edges().contains({phase, event})) continue;
      ++illegal;
      EXPECT_FALSE(next_phase(phase, event).has_value())
          << to_string(phase) << " + " << to_string(event);

      ClientStateMachine m = machine_in(phase);
      const std::uint64_t before = m.transitions();
      try {
        m.fire(event);
        FAIL() << to_string(phase) << " + " << to_string(event)
               << " should have thrown";
      } catch (const ContractViolation& ex) {
        // The error must name both the event and the phase it hit.
        const std::string what = ex.what();
        EXPECT_NE(what.find(to_string(event)), std::string::npos) << what;
        EXPECT_NE(what.find(to_string(phase)), std::string::npos) << what;
      }
      // A rejected event leaves the machine untouched.
      EXPECT_EQ(m.phase(), phase);
      EXPECT_EQ(m.transitions(), before);
    }
  }
  // 5 phases x 7 events = 35 pairs; 18 legal edges leaves 17 illegal.
  EXPECT_EQ(illegal,
            kClientPhaseCount * kCoordEventCount -
                static_cast<int>(legal_edges().size()));
}

TEST(CoordState, TimeoutFallsBackToIdleFromEveryNonIdlePhase) {
  for (const P phase :
       {P::Discovered, P::Associated, P::PredictedHandoff, P::HandedOff}) {
    ClientStateMachine m = machine_in(phase);
    EXPECT_EQ(m.fire(E::Timeout), P::Idle) << to_string(phase);
  }
  // Nothing can time out before it was ever seen.
  EXPECT_THROW(machine_in(P::Idle).fire(E::Timeout), ContractViolation);
}

TEST(CoordState, AnchorLossFallsBackToDiscoveredFromAssociatedPhases) {
  for (const P phase : {P::Associated, P::PredictedHandoff, P::HandedOff}) {
    ClientStateMachine m = machine_in(phase);
    EXPECT_EQ(m.fire(E::AnchorLost), P::Discovered) << to_string(phase);
  }
  EXPECT_THROW(machine_in(P::Idle).fire(E::AnchorLost), ContractViolation);
  EXPECT_THROW(machine_in(P::Discovered).fire(E::AnchorLost),
               ContractViolation);
}

TEST(CoordState, PredictionMissRecoversToAssociatedAndCanRePredict) {
  ClientStateMachine m = machine_in(P::PredictedHandoff);
  EXPECT_EQ(m.fire(E::PredictionMiss), P::Associated);
  // Recovery is complete: the machine can commit to a fresh prediction
  // and carry it through to a hit.
  EXPECT_EQ(m.fire(E::PredictionMade), P::PredictedHandoff);
  EXPECT_EQ(m.fire(E::HandoffObserved), P::HandedOff);
  EXPECT_EQ(m.fire(E::AnchorConfirmed), P::Associated);
}

// ------------------------------------------------------------ the predictor

TEST(CoordPredictor, HighestCountWinsAndTiesGoToTheLowestBsId) {
  NextBsPredictor pred;
  pred.add(NodeId(10), NodeId(12), 3);
  pred.add(NodeId(10), NodeId(11), 3);
  pred.add(NodeId(10), NodeId(13), 2);
  const auto p = pred.predict(NodeId(10), 0.0, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->bs, NodeId(11));  // 3-way count tie at 3: lowest id wins.
  EXPECT_EQ(p->support, 8);
  EXPECT_DOUBLE_EQ(p->confidence, 3.0 / 8.0);
}

TEST(CoordPredictor, SupportAndConfidenceFloorsHold) {
  NextBsPredictor pred;
  pred.add(NodeId(10), NodeId(11), 2);
  EXPECT_FALSE(pred.predict(NodeId(10), 0.0, 3).has_value());  // support 2 < 3
  pred.add(NodeId(10), NodeId(12), 2);
  // Support 4 clears the floor, but the best share is 0.5 < 0.6.
  EXPECT_FALSE(pred.predict(NodeId(10), 0.6, 3).has_value());
  EXPECT_TRUE(pred.predict(NodeId(10), 0.5, 3).has_value());
  EXPECT_FALSE(pred.predict(NodeId(99), 0.0, 1).has_value());  // never seen
}

TEST(CoordPredictor, FitHistoryFromGeneratedCampaignSeedsThePredictor) {
  const scenario::Testbed bed = runtime::make_testbed("VanLAN", 1);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 4;
  cfg.seed = 7;
  cfg.log_probes = false;
  const trace::Campaign campaign = scenario::generate_campaign(bed, cfg);
  std::vector<const trace::MeasurementTrace*> trips;
  for (const auto& t : campaign.trips) trips.push_back(&t);
  const auto history = fit_history(trips);
  ASSERT_FALSE(history.empty());
  for (const auto& [from, to, count] : history) {
    EXPECT_NE(from, to);
    EXPECT_GT(count, 0);
  }
  NextBsPredictor pred;
  pred.seed(history);
  // The fixed route repeats every trip, so at least one BS has a
  // confidently-predictable successor.
  bool any = false;
  for (const auto& triple : history)
    if (pred.predict(NodeId(triple[0]), 0.6, 3).has_value()) any = true;
  EXPECT_TRUE(any);
}

// ------------------------------------------------- the ConnectivityManager

class CoordManagerTest : public ::testing::Test {
 protected:
  /// History: A -> B with overwhelming support, so an Associated client
  /// anchored at A immediately predicts B.
  core::CoordParams confident_params() {
    core::CoordParams params;
    params.enabled = true;
    params.history = {{10, 11, 5}};
    return params;
  }

  sim::Simulator sim_;
  const NodeId veh_{1};
  const NodeId bs_a_{10}, bs_b_{11}, bs_c_{12};
};

TEST_F(CoordManagerTest, FirstAnchoredBeaconAssociatesAndPredicts) {
  ConnectivityManager mgr(sim_, confident_params());
  std::vector<std::array<NodeId, 3>> prestaged;
  mgr.set_prestage_handler([&](NodeId v, NodeId pred, NodeId anchor) {
    prestaged.push_back({v, pred, anchor});
  });
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  // Idle -> Discovered -> Associated -> PredictedHandoff in one beacon:
  // the history already says A's successor is B.
  EXPECT_EQ(mgr.phase(veh_), P::PredictedHandoff);
  EXPECT_EQ(mgr.anchor(veh_), bs_a_);
  EXPECT_EQ(mgr.predicted(veh_), bs_b_);
  EXPECT_DOUBLE_EQ(mgr.confidence(veh_), 1.0);
  EXPECT_EQ(mgr.predictions(), 1u);
  EXPECT_EQ(mgr.prestages(), 1u);
  ASSERT_EQ(prestaged.size(), 1u);
  EXPECT_EQ(prestaged[0][0], veh_);
  EXPECT_EQ(prestaged[0][1], bs_b_);
  EXPECT_EQ(prestaged[0][2], bs_a_);
}

TEST_F(CoordManagerTest, PredictionHitMovesThroughHandedOffToAssociated) {
  ConnectivityManager mgr(sim_, confident_params());
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  sim_.run_until(Time::seconds(1.0));
  mgr.on_beacon(bs_b_, veh_, bs_b_);  // The predicted handoff happens.
  EXPECT_EQ(mgr.phase(veh_), P::HandedOff);
  EXPECT_EQ(mgr.anchor(veh_), bs_b_);
  EXPECT_EQ(mgr.prediction_hits(), 1u);
  EXPECT_EQ(mgr.prediction_misses(), 0u);
  sim_.run_until(Time::seconds(2.0));
  mgr.on_beacon(bs_b_, veh_, bs_b_);  // Steady beacon settles the client.
  EXPECT_EQ(mgr.phase(veh_), P::Associated);
}

TEST_F(CoordManagerTest, PredictionMissRecoversAndLearnsTheSuccession) {
  ConnectivityManager mgr(sim_, confident_params());
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  ASSERT_EQ(mgr.phase(veh_), P::PredictedHandoff);
  sim_.run_until(Time::seconds(1.0));
  mgr.on_beacon(bs_c_, veh_, bs_c_);  // Handoff to C, not the predicted B.
  EXPECT_EQ(mgr.phase(veh_), P::Associated);
  EXPECT_EQ(mgr.anchor(veh_), bs_c_);
  EXPECT_FALSE(mgr.predicted(veh_).valid());
  EXPECT_EQ(mgr.prediction_misses(), 1u);
  // The miss still taught the predictor the A -> C succession.
  EXPECT_EQ(mgr.predictor().support(bs_a_), 6);
}

TEST_F(CoordManagerTest, AnchorLossDropsBackToDiscovered) {
  ConnectivityManager mgr(sim_, confident_params());
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  sim_.run_until(Time::seconds(1.0));
  mgr.on_beacon(bs_a_, veh_, NodeId{});  // Beacon with no designation.
  EXPECT_EQ(mgr.phase(veh_), P::Discovered);
  EXPECT_FALSE(mgr.anchor(veh_).valid());
  EXPECT_FALSE(mgr.predicted(veh_).valid());
}

TEST_F(CoordManagerTest, SilentClientTimesOutBackToIdleViaTheTimer) {
  ConnectivityManager mgr(sim_, confident_params());
  mgr.start();
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  // Default beacon_timeout is 3 s; the 1 s scan past that fires Timeout.
  sim_.run_until(Time::seconds(5.0));
  EXPECT_EQ(mgr.phase(veh_), P::Idle);
  EXPECT_FALSE(mgr.anchor(veh_).valid());
  // And the client can come back.
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  EXPECT_EQ(mgr.phase(veh_), P::PredictedHandoff);
}

TEST_F(CoordManagerTest, SameInstantBeaconRepeatsAreAbsorbedOnce) {
  ConnectivityManager mgr(sim_, confident_params());
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  const std::uint64_t after_first = mgr.transitions();
  mgr.on_beacon(bs_b_, veh_, bs_a_);  // Same beacon decoded by another BS.
  mgr.on_beacon(bs_c_, veh_, bs_a_);
  EXPECT_EQ(mgr.transitions(), after_first);
}

TEST_F(CoordManagerTest, SuppressionOnlyInsideConfidentPredictionWindows) {
  ConnectivityManager mgr(sim_, confident_params());
  // No state at all: never suppress.
  EXPECT_FALSE(mgr.suppress_relay(bs_c_, veh_));
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  ASSERT_EQ(mgr.phase(veh_), P::PredictedHandoff);
  // Anchor and predicted successor always relay; third parties don't.
  EXPECT_FALSE(mgr.suppress_relay(bs_a_, veh_));
  EXPECT_FALSE(mgr.suppress_relay(bs_b_, veh_));
  EXPECT_TRUE(mgr.suppress_relay(bs_c_, veh_));
  EXPECT_EQ(mgr.suppressed_relays(), 1u);
  // Outside the window (prediction resolved) nothing is suppressed.
  sim_.run_until(Time::seconds(1.0));
  mgr.on_beacon(bs_b_, veh_, bs_b_);
  ASSERT_EQ(mgr.phase(veh_), P::HandedOff);
  EXPECT_FALSE(mgr.suppress_relay(bs_c_, veh_));
  EXPECT_EQ(mgr.suppressed_relays(), 1u);
}

TEST_F(CoordManagerTest, NoPredictionWithoutHistorySupport) {
  core::CoordParams params;
  params.enabled = true;  // No offline history at all.
  ConnectivityManager mgr(sim_, params);
  mgr.on_beacon(bs_a_, veh_, bs_a_);
  // Associated, but min_history (3) successions have not been seen.
  EXPECT_EQ(mgr.phase(veh_), P::Associated);
  EXPECT_FALSE(mgr.predicted(veh_).valid());
  EXPECT_EQ(mgr.predictions(), 0u);
}

// -------------------------------------------------------- live-stack wiring

TEST(CoordLive, AttachedManagerObservesARealTrip) {
  const scenario::Testbed bed = runtime::make_testbed("VanLAN", 1);
  core::SystemConfig sys;
  sys.vifi.max_retx = 0;
  sys.coord.enabled = true;
  scenario::LiveTrip trip(bed, sys, /*seed=*/42);
  ASSERT_NE(trip.coord(), nullptr);
  trip.run_until(Time::seconds(60.0));
  const ConnectivityManager& mgr = *trip.coord();
  // The shuttle beacons through the deployment: the manager must have
  // seen it and walked its machine through real transitions.
  EXPECT_GT(mgr.transitions(), 0u);
  EXPECT_NE(mgr.phase(bed.vehicle_ids().front()), P::Idle);
}

TEST(CoordLive, DisabledCoordLeavesTheStackUntouched) {
  const scenario::Testbed bed = runtime::make_testbed("VanLAN", 1);
  core::SystemConfig sys;
  sys.vifi.max_retx = 0;
  scenario::LiveTrip trip(bed, sys, /*seed=*/42);
  EXPECT_EQ(trip.coord(), nullptr);
}

}  // namespace
}  // namespace vifi::coord
