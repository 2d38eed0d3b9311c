// Multi-vehicle (fleet) tests: two ViFi clients sharing the same BSes,
// medium, and backplane must be anchored and served independently.

#include <gtest/gtest.h>

#include "core/system.h"
#include "fakes.h"
#include "sim/simulator.h"

namespace vifi {
namespace {

using core::SystemConfig;
using core::VifiSystem;
using sim::NodeId;
using testing::ScriptedLoss;

/// Two BSes, two vehicles, a gateway. Vehicle A lives near BS0, vehicle B
/// near BS1.
class FleetTest : public ::testing::Test {
 protected:
  static constexpr int kBs0 = 0, kBs1 = 1, kVehA = 2, kVehB = 3, kGw = 4;

  void build(SystemConfig config = {}) {
    config.seed = 5;
    system_ = std::make_unique<VifiSystem>(
        sim_, loss_, std::vector<NodeId>{NodeId(kBs0), NodeId(kBs1)},
        std::vector<NodeId>{NodeId(kVehA), NodeId(kVehB)}, NodeId(kGw),
        config);
    system_->vehicle(NodeId(kVehA)).set_delivery_handler(
        [this](const net::PacketRef& p) { got_a_.push_back(p->id); });
    system_->vehicle(NodeId(kVehB)).set_delivery_handler(
        [this](const net::PacketRef& p) { got_b_.push_back(p->id); });
    for (const int v : {kVehA, kVehB})
      system_->host().set_delivery_handler(
          NodeId(v),
          [this](const net::PacketRef& p) { got_host_.push_back(p->src); });
    system_->start();
  }

  void connect_disjoint() {
    loss_.set(NodeId(kBs0), NodeId(kVehA), 0.95);
    loss_.set(NodeId(kBs1), NodeId(kVehB), 0.95);
    loss_.set(NodeId(kBs0), NodeId(kBs1), 0.0);
    // Vehicles out of each other's range.
    loss_.set(NodeId(kVehA), NodeId(kVehB), 0.0);
  }

  void run_for(Time d) { sim_.run_until(sim_.now() + d); }

  sim::Simulator sim_;
  ScriptedLoss loss_;
  std::unique_ptr<VifiSystem> system_;
  std::vector<std::uint64_t> got_a_, got_b_;
  std::vector<NodeId> got_host_;
};

TEST_F(FleetTest, VehiclesAnchorIndependently) {
  connect_disjoint();
  build();
  run_for(Time::seconds(3.0));
  EXPECT_EQ(system_->vehicle(NodeId(kVehA)).anchor(), NodeId(kBs0));
  EXPECT_EQ(system_->vehicle(NodeId(kVehB)).anchor(), NodeId(kBs1));
}

TEST_F(FleetTest, GatewayRoutesDownstreamPerVehicle) {
  connect_disjoint();
  build();
  run_for(Time::seconds(3.0));
  EXPECT_EQ(system_->host().registered_anchor(NodeId(kVehA)), NodeId(kBs0));
  EXPECT_EQ(system_->host().registered_anchor(NodeId(kVehB)), NodeId(kBs1));
  const auto pa = system_->send_down(100, 0, 0, {}, NodeId(kVehA));
  const auto pb = system_->send_down(100, 0, 0, {}, NodeId(kVehB));
  run_for(Time::seconds(1.0));
  ASSERT_EQ(got_a_.size(), 1u);
  ASSERT_EQ(got_b_.size(), 1u);
  EXPECT_EQ(got_a_[0], pa->id);
  EXPECT_EQ(got_b_[0], pb->id);
}

TEST_F(FleetTest, UpstreamCarriesSourceIdentity) {
  connect_disjoint();
  build();
  run_for(Time::seconds(3.0));
  system_->send_up(100, 0, 0, {}, NodeId(kVehA));
  system_->send_up(100, 0, 0, {}, NodeId(kVehB));
  run_for(Time::seconds(1.0));
  ASSERT_EQ(got_host_.size(), 2u);
  EXPECT_NE(std::find(got_host_.begin(), got_host_.end(), NodeId(kVehA)),
            got_host_.end());
  EXPECT_NE(std::find(got_host_.begin(), got_host_.end(), NodeId(kVehB)),
            got_host_.end());
}

TEST_F(FleetTest, ReregisteringAHostHandlerReplacesThePreviousOne) {
  // A caller overriding a transport's handler (the quickstart does) must
  // take every later delivery of that vehicle.
  connect_disjoint();
  build();
  run_for(Time::seconds(3.0));
  std::vector<std::uint64_t> replaced;
  system_->host().set_delivery_handler(
      NodeId(kVehA),
      [&replaced](const net::PacketRef& p) { replaced.push_back(p->id); });
  const auto pa = system_->send_up(100, 0, 0, {}, NodeId(kVehA));
  system_->send_up(100, 0, 0, {}, NodeId(kVehB));
  run_for(Time::seconds(1.0));
  ASSERT_EQ(replaced.size(), 1u);
  EXPECT_EQ(replaced[0], pa->id);
  // The first handler of A no longer fires; B's is untouched.
  EXPECT_EQ(got_host_, std::vector<NodeId>{NodeId(kVehB)});
}

TEST_F(FleetTest, VehicleWithoutHostHandlerIsCountedButReachesNoOtherOne) {
  connect_disjoint();
  SystemConfig config;
  config.seed = 5;
  VifiSystem system(sim_, loss_, {NodeId(kBs0), NodeId(kBs1)},
                    {NodeId(kVehA), NodeId(kVehB)}, NodeId(kGw), config);
  std::vector<NodeId> got_b;
  system.host().set_delivery_handler(
      NodeId(kVehB),
      [&got_b](const net::PacketRef& p) { got_b.push_back(p->src); });
  system.start();
  run_for(Time::seconds(3.0));
  system.send_up(100, 0, 0, {}, NodeId(kVehA));
  run_for(Time::seconds(1.0));
  EXPECT_EQ(system.stats().app_delivered(net::Direction::Upstream), 1);
  EXPECT_TRUE(got_b.empty());
  system.send_up(100, 0, 0, {}, NodeId(kVehB));
  run_for(Time::seconds(1.0));
  EXPECT_EQ(system.stats().app_delivered(net::Direction::Upstream), 2);
  EXPECT_EQ(got_b, std::vector<NodeId>{NodeId(kVehB)});
}

TEST_F(FleetTest, OneBsCanAnchorTwoVehicles) {
  // Both vehicles camp on BS0.
  loss_.set(NodeId(kBs0), NodeId(kVehA), 0.95);
  loss_.set(NodeId(kBs0), NodeId(kVehB), 0.95);
  loss_.set(NodeId(kVehA), NodeId(kVehB), 0.0);
  build();
  run_for(Time::seconds(3.0));
  EXPECT_EQ(system_->vehicle(NodeId(kVehA)).anchor(), NodeId(kBs0));
  EXPECT_EQ(system_->vehicle(NodeId(kVehB)).anchor(), NodeId(kBs0));
  for (int i = 0; i < 10; ++i) {
    system_->send_down(100, 0, static_cast<std::uint64_t>(i), {},
                       NodeId(kVehA));
    system_->send_down(100, 0, static_cast<std::uint64_t>(i), {},
                       NodeId(kVehB));
    run_for(Time::millis(100.0));
  }
  run_for(Time::seconds(1.0));
  EXPECT_EQ(got_a_.size(), 10u);
  EXPECT_EQ(got_b_.size(), 10u);
}

TEST_F(FleetTest, SalvageIsScopedToTheRightVehicle) {
  // Both vehicles anchored at BS0; vehicle A moves to BS1, vehicle B
  // stays. Only A's stranded packets may be salvaged.
  loss_.set(NodeId(kBs0), NodeId(kVehA), 0.95);
  loss_.set(NodeId(kBs0), NodeId(kVehB), 0.95);
  build();
  run_for(Time::seconds(3.0));
  ASSERT_EQ(system_->vehicle(NodeId(kVehA)).anchor(), NodeId(kBs0));

  loss_.set_directed(NodeId(kBs0), NodeId(kVehA), 0.0);
  loss_.set(NodeId(kBs1), NodeId(kVehA), 0.95);
  for (int i = 0; i < 100; ++i) {
    system_->send_down(100, 0, static_cast<std::uint64_t>(i), {},
                       NodeId(kVehA));
    system_->send_down(100, 0, static_cast<std::uint64_t>(i), {},
                       NodeId(kVehB));
    run_for(Time::millis(50.0));
  }
  EXPECT_EQ(system_->vehicle(NodeId(kVehA)).anchor(), NodeId(kBs1));
  EXPECT_EQ(system_->vehicle(NodeId(kVehB)).anchor(), NodeId(kBs0));
  // B's stream was never disrupted.
  EXPECT_EQ(got_b_.size(), 100u);
  // A recovered at least some packets after re-anchoring.
  EXPECT_GT(got_a_.size(), 20u);
}

TEST_F(FleetTest, OneSidedPlacementDoesNotStarveTheFarVehicle) {
  // Relay-starvation regression (PR 4 follow-up): a one-sided BS layout —
  // both BSes clustered on vehicle A's side, so A enjoys full relay
  // diversity while B clings to BS0 through a lossy long-range link. With
  // opportunistic relaying on (diversity + salvage), A's auxiliary
  // retransmissions share B's only channel; B must degrade, not starve.
  loss_.set(NodeId(kBs0), NodeId(kVehA), 0.95);
  loss_.set(NodeId(kBs1), NodeId(kVehA), 0.9);
  loss_.set(NodeId(kBs0), NodeId(kBs1), 0.95);
  loss_.set(NodeId(kVehA), NodeId(kVehB), 0.6);
  // B's single lossy path: in range, dropping every 3rd frame each way.
  loss_.set(NodeId(kBs0), NodeId(kVehB), 0.55);
  loss_.set_period_drop(NodeId(kBs0), NodeId(kVehB), 3);
  loss_.set_period_drop(NodeId(kVehB), NodeId(kBs0), 3);
  build();  // defaults: diversity + salvage on — full ViFi relaying
  run_for(Time::seconds(3.0));
  // A may anchor at either of its two strong BSes; B has only BS0.
  ASSERT_TRUE(system_->vehicle(NodeId(kVehA)).anchor().valid());
  ASSERT_EQ(system_->vehicle(NodeId(kVehB)).anchor(), NodeId(kBs0));

  const int rounds = 200;
  for (int i = 0; i < rounds; ++i) {
    system_->send_down(500, 0, static_cast<std::uint64_t>(i), {},
                       NodeId(kVehA));
    system_->send_down(500, 0, static_cast<std::uint64_t>(i), {},
                       NodeId(kVehB));
    run_for(Time::millis(20.0));
  }
  run_for(Time::seconds(1.0));

  // The quantities the executor's fairness columns report, computed from
  // the same sources (delivery counts + the medium's airtime ledger).
  const double rate_a = static_cast<double>(got_a_.size()) / rounds;
  const double rate_b = static_cast<double>(got_b_.size()) / rounds;
  const double per_vehicle_delivery_min = std::min(rate_a, rate_b);
  // The layout is genuinely asymmetric...
  EXPECT_GT(rate_a, rate_b);
  // ...but relaying must not starve the far vehicle to zero.
  EXPECT_GT(per_vehicle_delivery_min, 0.1);
  EXPECT_GT(got_b_.size(), 0u);

  const mac::MediumStats ms = system_->medium().snapshot();
  const mac::NodeAirtime& row_b = ms.node(NodeId(kVehB));
  EXPECT_GT(row_b.frames_received, 0u);
  // Deferral column: B waits its turn on the shared channel (relaying
  // really does contend) without being locked out of the whole run.
  const double trip_s = (Time::millis(20.0) * rounds).to_seconds() + 4.0;
  EXPECT_LT(row_b.deferral_wait.to_seconds(), trip_s / 2.0);
  // Jain over intact receptions stays a valid, non-collapsed index.
  const double jain =
      ms.jain_frames_received({NodeId(kVehA), NodeId(kVehB)});
  EXPECT_GT(jain, 0.5);
  EXPECT_LE(jain, 1.0 + 1e-12);
}

TEST_F(FleetTest, UnknownVehicleIdThrows) {
  connect_disjoint();
  build();
  EXPECT_THROW(system_->vehicle(NodeId(99)), ContractViolation);
}

/// Contention-knee regression: V staggered clients camped on one BS. As V
/// grows, the shared channel must serve more aggregate traffic (goodput is
/// monotone non-decreasing) while each client keeps less of it (per-vehicle
/// delivery is non-increasing), and the medium's fairness index over the
/// fleet stays a valid Jain value in (0, 1]. This pins the shape the
/// `paper fleet_contention` knee study measures.
class ContentionTest : public ::testing::Test {
 protected:
  struct Outcome {
    double aggregate = 0.0;    ///< Total packets delivered across the fleet.
    double per_vehicle = 0.0;  ///< aggregate / V.
    double jain = 0.0;         ///< Jain over per-vehicle intact receptions.
  };

  /// One BS (id 0) anchoring V vehicles (ids 1..V); every node hears every
  /// other, so CSMA serialises the fleet and contention shows up as queueing,
  /// not hidden-terminal collapse. Vehicles start their downstream streams
  /// staggered within the sending period, like buses phased on a schedule.
  Outcome run_fleet(int vehicles) {
    sim::Simulator sim;
    testing::ScriptedLoss loss;
    std::vector<NodeId> vehicle_ids;
    vehicle_ids.reserve(static_cast<std::size_t>(vehicles));
    for (int v = 1; v <= vehicles; ++v) vehicle_ids.push_back(NodeId(v));
    const NodeId bs(0), gw(99);
    for (const NodeId a : vehicle_ids) {
      loss.set(bs, a, 0.95);
      for (const NodeId b : vehicle_ids)
        if (a != b) loss.set(a, b, 0.9);
    }
    core::SystemConfig config;
    config.seed = 7;
    core::VifiSystem system(sim, loss, {bs}, vehicle_ids, gw, config);
    std::vector<int> got(static_cast<std::size_t>(vehicles), 0);
    // Goodput is what arrives within the measurement window: once the
    // channel saturates, packets queueing past the deadline don't count,
    // which is exactly how contention starves clients in practice.
    Time deadline = Time::max();
    for (int v = 0; v < vehicles; ++v)
      system.vehicle(vehicle_ids[static_cast<std::size_t>(v)])
          .set_delivery_handler([&got, &deadline, &sim, v](
                                    const net::PacketRef&) {
            if (sim.now() <= deadline) ++got[v];
          });
    system.start();
    sim.run_until(Time::seconds(3.0));

    // Offered load: a 500-byte packet per vehicle every 12 ms (~350 kbps
    // on air each, incl. ACKs and beacons): one vehicle uses about a third of
    // the channel, two fit, four oversubscribe it by half — enough for the knee to bite without
    // collapsing the senders.
    const int rounds = 150;
    for (int i = 0; i < rounds; ++i) {
      for (int v = 0; v < vehicles; ++v) {
        const Time at = sim.now() + Time::millis(12.0 * v / vehicles);
        sim.schedule_at(at, [&system, &vehicle_ids, v, i] {
          system.send_down(500, 0, static_cast<std::uint64_t>(i), {},
                           vehicle_ids[static_cast<std::size_t>(v)]);
        });
      }
      sim.run_until(sim.now() + Time::millis(12.0));
    }
    deadline = sim.now() + Time::millis(250.0);
    sim.run_until(sim.now() + Time::seconds(3.0));

    Outcome out;
    for (const int g : got) out.aggregate += g;
    out.per_vehicle = out.aggregate / vehicles;
    out.jain = system.medium().snapshot().jain_frames_received(vehicle_ids);
    return out;
  }
};

TEST_F(ContentionTest, AggregateGrowsWhilePerVehicleDeliveryShrinks) {
  const Outcome v1 = run_fleet(1);
  const Outcome v2 = run_fleet(2);
  const Outcome v4 = run_fleet(4);

  // Aggregate goodput is monotone non-decreasing in V...
  EXPECT_GE(v2.aggregate, v1.aggregate);
  EXPECT_GE(v4.aggregate, v2.aggregate);
  // ...while per-vehicle delivery is non-increasing: added clients cost
  // contention, and by V=4 the knee has clearly bitten.
  EXPECT_LE(v2.per_vehicle, v1.per_vehicle);
  EXPECT_LE(v4.per_vehicle, v2.per_vehicle);
  EXPECT_LT(v4.per_vehicle, 0.9 * v1.per_vehicle);

  // Jain's index over the fleet is a valid fairness value throughout.
  for (const Outcome& o : {v1, v2, v4}) {
    EXPECT_GT(o.jain, 0.0);
    EXPECT_LE(o.jain, 1.0 + 1e-12);
  }
  // One vehicle is perfectly fair by definition.
  EXPECT_DOUBLE_EQ(v1.jain, 1.0);
}

}  // namespace
}  // namespace vifi
