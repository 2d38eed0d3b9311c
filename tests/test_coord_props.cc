// CoordTier property harness (ctest label `props`): 1000 seeded random
// contact schedules driven straight through the ConnectivityManager,
// asserting the invariants the tier is built on —
//   (a) sweep output with the coord axis on is byte-identical across
//       thread counts,
//   (b) no client ever holds two live anchors (the transition stream per
//       client is one connected chain, and anchors only exist in
//       associated phases),
//   (c) relays are suppressed only inside live confident-prediction
//       windows, and
//   (d) the manager's counters reconcile exactly with TripScope's
//       per-kind event counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "coord/manager.h"
#include "coord/state.h"
#include "core/config.h"
#include "obs/event.h"
#include "obs/recorder.h"
#include "runtime/runner.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vifi::coord {
namespace {

using P = ClientPhase;
using E = CoordEvent;
using sim::NodeId;

constexpr int kSchedules = 1000;

bool associated_phase(P p) {
  return p == P::Associated || p == P::PredictedHandoff || p == P::HandedOff;
}

/// Drives one random contact schedule through a manager and checks the
/// per-step invariants; the caller reconciles the aggregate counts.
void drive_schedule(std::uint64_t seed, sim::Simulator& sim,
                    ConnectivityManager& mgr) {
  Rng rng(seed);
  const std::vector<NodeId> bses{NodeId(10), NodeId(11), NodeId(12),
                                 NodeId(13)};
  const std::vector<NodeId> vehicles{NodeId(1), NodeId(2)};
  const int steps = static_cast<int>(rng.uniform_int(40, 120));
  for (int step = 0; step < steps; ++step) {
    // Monotonic clock, sometimes jumping far enough for a timeout.
    const double dt =
        rng.bernoulli(0.08) ? rng.uniform(4.0, 9.0) : rng.uniform(0.2, 1.5);
    sim.run_until(sim.now() + Time::seconds(dt));
    const NodeId veh =
        vehicles[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    // A beacon names a random anchor, no anchor at all, or is missed.
    if (!rng.bernoulli(0.15)) {
      const NodeId anchor =
          rng.bernoulli(0.2)
              ? NodeId{}
              : bses[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      const NodeId observer =
          bses[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      mgr.on_beacon(observer, veh, anchor);
      if (rng.bernoulli(0.3)) mgr.on_beacon(observer, veh, anchor);  // dupes
    }
    if (rng.bernoulli(0.4)) mgr.tick(sim.now());

    // (c) suppression decisions: true only inside a live confident window,
    // and never for the anchor or the predicted successor.
    const NodeId aux = bses[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const P phase_before = mgr.phase(veh);
    const NodeId anchor_before = mgr.anchor(veh);
    const NodeId predicted_before = mgr.predicted(veh);
    const double confidence_before = mgr.confidence(veh);
    const bool suppressed = mgr.suppress_relay(aux, veh);
    if (suppressed) {
      EXPECT_EQ(phase_before, P::PredictedHandoff);
      EXPECT_GE(confidence_before, mgr.params().min_confidence);
      EXPECT_NE(aux, anchor_before);
      EXPECT_NE(aux, predicted_before);
    }

    for (const NodeId v : vehicles) {
      // (b) a live anchor exists exactly in the associated phases; a
      // prediction only inside its window, above the confidence floor.
      EXPECT_EQ(mgr.anchor(v).valid(), associated_phase(mgr.phase(v)));
      if (mgr.phase(v) == P::PredictedHandoff) {
        EXPECT_TRUE(mgr.predicted(v).valid());
        EXPECT_NE(mgr.predicted(v), mgr.anchor(v));
        EXPECT_GE(mgr.confidence(v), mgr.params().min_confidence);
      } else {
        EXPECT_FALSE(mgr.predicted(v).valid());
      }
    }
  }
}

TEST(CoordProps, RandomSchedulesKeepEveryInvariant) {
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    // The recorder keeps every event, so the reconciliation below sees
    // the complete stream.
    obs::TraceRecorder recorder;
    obs::TraceScope scope(recorder);
    sim::Simulator sim;
    core::CoordParams params;
    params.enabled = true;
    // A slice of seeds runs with offline history and a lower floor, so
    // prediction windows (and suppressions) are actually exercised.
    if (seed % 2 == 0) {
      params.history = {{10, 11, 4}, {11, 12, 4}, {12, 13, 3}, {13, 10, 3}};
      params.min_confidence = 0.4;
    }
    ConnectivityManager mgr(sim, params);
    ASSERT_NO_THROW(drive_schedule(seed, sim, mgr)) << "seed " << seed;

    // (d) counters reconcile exactly with TripScope's per-kind counts.
    ASSERT_EQ(mgr.transitions(),
              recorder.count(obs::EventKind::CoordTransition))
        << "seed " << seed;
    ASSERT_EQ(mgr.prestages(), recorder.count(obs::EventKind::CoordPrestage))
        << "seed " << seed;
    ASSERT_EQ(mgr.suppressed_relays(),
              recorder.count(obs::EventKind::CoordSuppress))
        << "seed " << seed;

    // (b) replay the recorded transition stream per client: it must form
    // one connected chain from Idle (every transition leaves the phase the
    // previous one entered), so a client can never hold two live anchors —
    // entering an anchored phase always passes through the machine.
    std::map<int, P> replayed;
    std::uint64_t transition_events = 0;
    for (const obs::TraceEvent& e : recorder.merged()) {
      if (e.kind != obs::EventKind::CoordTransition) continue;
      ++transition_events;
      const auto event = static_cast<E>(e.c >> 8);
      const auto from = static_cast<P>((e.c >> 4) & 0xF);
      const auto to = static_cast<P>(e.c & 0xF);
      P& phase = replayed.try_emplace(e.node.value(), P::Idle).first->second;
      ASSERT_EQ(phase, from) << "seed " << seed;
      const auto expected = next_phase(from, event);
      ASSERT_TRUE(expected.has_value()) << "seed " << seed;
      ASSERT_EQ(*expected, to) << "seed " << seed;
      phase = to;
    }
    ASSERT_EQ(transition_events, mgr.transitions()) << "seed " << seed;
    for (const auto& [vehicle, phase] : replayed)
      ASSERT_EQ(phase, mgr.phase(NodeId(vehicle))) << "seed " << seed;
  }
}

// (c) in aggregate: every recorded suppression carries the confidence of
// its window, which can never undercut the configured floor.
TEST(CoordProps, SuppressionEventsNeverUndercutTheConfidenceFloor) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    obs::TraceRecorder recorder;
    obs::TraceScope scope(recorder);
    sim::Simulator sim;
    core::CoordParams params;
    params.enabled = true;
    params.history = {{10, 11, 4}, {11, 12, 4}, {12, 13, 3}, {13, 10, 3}};
    params.min_confidence = 0.4;
    ConnectivityManager mgr(sim, params);
    drive_schedule(seed, sim, mgr);
    for (const obs::TraceEvent& e : recorder.merged()) {
      if (e.kind == obs::EventKind::CoordSuppress) {
        ASSERT_GE(e.a, params.min_confidence) << "seed " << seed;
      }
    }
  }
}

// (a) the sweep with the coordination axis on is a pure function of the
// spec: JSON and CSV bytes identical on 1 and 8 worker threads.
TEST(CoordProps, CoordSweepIsByteIdenticalAcrossThreadCounts) {
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.fleet_sizes = {2};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"pab", "coord"};
  spec.grid.seeds = {1, 2};
  spec.workload = "cbr";
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(20.0);

  const runtime::ResultSink one = runtime::Runner({.threads = 1}).run(spec);
  const runtime::ResultSink eight =
      runtime::Runner({.threads = 8}).run(spec);
  ASSERT_FALSE(one.any_errors()) << one.to_json();
  EXPECT_EQ(one.to_json(), eight.to_json());
  EXPECT_EQ(one.to_csv(), eight.to_csv());
  // The axis actually ran: coord and pab twins share their identity
  // columns but are distinct points.
  EXPECT_EQ(one.ordered().size(), 4u);
  EXPECT_EQ(one.ordered()[0].coordination, "pab");
  EXPECT_EQ(one.ordered()[2].coordination, "coord");
}

}  // namespace
}  // namespace vifi::coord
