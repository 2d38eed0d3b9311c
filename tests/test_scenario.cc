// Tests for testbed assembly, measurement-campaign generation, BS-subset
// filtering, burst probing, and live-trip plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "fakes.h"
#include "scenario/burst_probe.h"
#include "scenario/campaign.h"
#include "scenario/channel_plan.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "trace/trace_io.h"
#include "util/contracts.h"

namespace vifi::scenario {
namespace {

TEST(Testbed, VanLanIdentityConventions) {
  const Testbed bed = make_vanlan();
  EXPECT_EQ(bed.bs_ids().size(), 11u);
  EXPECT_EQ(bed.vehicle().value(), 11);
  EXPECT_EQ(bed.wired_host().value(), 12);
  for (std::size_t i = 0; i < bed.bs_ids().size(); ++i)
    EXPECT_EQ(bed.bs_ids()[i].value(), static_cast<int>(i));
}

TEST(Testbed, FleetIdentityConventions) {
  // BSes 0..n-1, vehicles n..n+V-1, wired host n+V.
  const Testbed bed = make_vanlan(3);
  EXPECT_EQ(bed.fleet_size(), 3);
  ASSERT_EQ(bed.vehicle_ids().size(), 3u);
  EXPECT_EQ(bed.vehicle_ids()[0].value(), 11);
  EXPECT_EQ(bed.vehicle_ids()[1].value(), 12);
  EXPECT_EQ(bed.vehicle_ids()[2].value(), 13);
  EXPECT_EQ(bed.vehicle(), bed.vehicle_ids()[0]);
  EXPECT_EQ(bed.wired_host().value(), 14);
  for (const auto v : bed.vehicle_ids()) EXPECT_TRUE(bed.is_vehicle(v));
  EXPECT_FALSE(bed.is_vehicle(bed.bs_ids()[0]));
  EXPECT_FALSE(bed.is_vehicle(bed.wired_host()));
}

TEST(Testbed, FleetVehiclesRideOutOfPhase) {
  const Testbed bed = make_vanlan(2);
  // Default spread: the second van starts half a lap ahead, so the two
  // never share a position at the same instant (same loop, same speed).
  const auto a = bed.vehicle_ids()[0];
  const auto b = bed.vehicle_ids()[1];
  EXPECT_NE(bed.position(a, Time::zero()), bed.position(b, Time::zero()));
  // Phase, not geometry: b at t=0 sits where a is half a lap later.
  const Time half_lap = bed.trip_duration() * 0.5;
  const auto pa = bed.position(a, half_lap);
  const auto pb = bed.position(b, Time::zero());
  EXPECT_NEAR(pa.x, pb.x, 1e-6);
  EXPECT_NEAR(pa.y, pb.y, 1e-6);
}

TEST(Testbed, ExplicitFleetPhasesAreHonoured) {
  FleetSpec fleet;
  fleet.vehicles = 2;
  fleet.phases = {0.0, 0.0};
  const Testbed bed = make_dieselnet_fleet(1, std::move(fleet));
  EXPECT_EQ(bed.fleet_size(), 2);
  // Identical phases: the two buses shadow each other exactly.
  EXPECT_EQ(bed.position(bed.vehicle_ids()[0], Time::seconds(100.0)),
            bed.position(bed.vehicle_ids()[1], Time::seconds(100.0)));
}

TEST(Testbed, DieselnetFleetBusesStaggerOnSharedStops) {
  const Testbed bed = make_dieselnet(1, 2);
  const auto a = bed.vehicle_ids()[0];
  const auto b = bed.vehicle_ids()[1];
  // Same stop schedule, half a cycle apart: positions differ at t = 0.
  EXPECT_NE(bed.position(a, Time::zero()), bed.position(b, Time::zero()));
  // Phase alignment across the full cycle (cruise + dwells).
  const Time half = bed.trip_duration() * 0.5;
  const auto pa = bed.position(a, half);
  const auto pb = bed.position(b, Time::zero());
  EXPECT_NEAR(pa.x, pb.x, 1e-6);
  EXPECT_NEAR(pa.y, pb.y, 1e-6);
}

TEST(Testbed, PositionRejectsIdsOutsideTheTestbed) {
  const Testbed bed = make_vanlan();
  // 0..10 BSes, 11 vehicle, 12 wired host; 13 does not exist.
  EXPECT_NO_THROW(bed.position(NodeId(12), Time::zero()));
  EXPECT_THROW(bed.position(NodeId(13), Time::zero()), ContractViolation);
  EXPECT_THROW(bed.position(NodeId(999), Time::zero()), ContractViolation);
  EXPECT_THROW(bed.position(NodeId{}, Time::zero()), ContractViolation);
  try {
    bed.position(NodeId(42), Time::zero());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    // The message must state the real contract, not leak the BS-array
    // bounds check it used to fall through to.
    EXPECT_NE(std::string(e.what()).find("not part of"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("wired host"), std::string::npos);
  }
}

TEST(Testbed, BsPositionsAreFixedAndVehicleMoves) {
  const Testbed bed = make_vanlan();
  const auto bs = bed.bs_ids()[0];
  EXPECT_EQ(bed.position(bs, Time::zero()),
            bed.position(bs, Time::minutes(5.0)));
  EXPECT_NE(bed.position(bed.vehicle(), Time::zero()),
            bed.position(bed.vehicle(), Time::seconds(30.0)));
}

TEST(Testbed, TripDurationMatchesRouteAndSpeed) {
  const Testbed van = make_vanlan();
  // ~2.3 km loop at 11.1 m/s: a few minutes.
  EXPECT_GT(van.trip_duration(), Time::seconds(120.0));
  EXPECT_LT(van.trip_duration(), Time::seconds(400.0));
  // Bus route includes dwell time.
  const Testbed bus = make_dieselnet(1);
  EXPECT_GT(bus.trip_duration(), Time::seconds(400.0));
}

TEST(Testbed, ChannelFactoryIsDeterministic) {
  const Testbed bed = make_vanlan();
  auto a = bed.make_channel(Rng(5));
  auto b = bed.make_channel(Rng(5));
  const auto veh = bed.vehicle();
  for (int i = 0; i < 2000; ++i) {
    const Time t = Time::millis(10.0 * i);
    EXPECT_EQ(a->sample_delivery(bed.bs_ids()[0], veh, t),
              b->sample_delivery(bed.bs_ids()[0], veh, t));
  }
}

TEST(Testbed, PresetChannelParamsAreValid) {
  // The channel validates its parameters at construction; both presets'
  // calibrations must pass.
  for (const Testbed& bed : {make_vanlan(), make_dieselnet(1), make_dieselnet(6)})
    EXPECT_NO_THROW(bed.make_channel(Rng(7))) << bed.layout().name;
}

TEST(Campaign, ShapeMatchesConfig) {
  const Testbed bed = make_vanlan();
  CampaignConfig cfg;
  cfg.days = 2;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(30.0);
  const auto campaign = generate_campaign(bed, cfg);
  EXPECT_EQ(campaign.trips.size(), 6u);
  EXPECT_EQ(campaign.days(), 2);
  for (const auto& trip : campaign.trips) {
    EXPECT_EQ(trip.duration, Time::seconds(30.0));
    EXPECT_EQ(trip.bs_ids.size(), 11u);
    EXPECT_EQ(trip.slots.size(), 300u);  // 10 per second
    EXPECT_FALSE(trip.vehicle_beacons.empty());
    EXPECT_TRUE(trip.bs_beacons.empty());  // not requested
  }
}

TEST(Campaign, BeaconOnlyModeSkipsProbes) {
  const Testbed bed = make_dieselnet(1);
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(20.0);
  cfg.log_probes = false;
  const auto campaign = generate_campaign(bed, cfg);
  EXPECT_TRUE(campaign.trips[0].slots.empty());
  EXPECT_FALSE(campaign.trips[0].vehicle_beacons.empty());
}

TEST(Campaign, BsBeaconLoggingWorks) {
  const Testbed bed = make_vanlan();
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(20.0);
  cfg.log_bs_beacons = true;
  const auto campaign = generate_campaign(bed, cfg);
  // Co-located building BSes certainly hear each other.
  EXPECT_FALSE(campaign.trips[0].bs_beacons.empty());
}

TEST(Campaign, DeterministicForSeed) {
  const Testbed bed = make_vanlan();
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(15.0);
  cfg.seed = 31337;
  const auto a = generate_campaign(bed, cfg);
  const auto b = generate_campaign(bed, cfg);
  ASSERT_EQ(a.trips[0].slots.size(), b.trips[0].slots.size());
  for (std::size_t i = 0; i < a.trips[0].slots.size(); ++i) {
    EXPECT_EQ(a.trips[0].slots[i].down_heard, b.trips[0].slots[i].down_heard);
    EXPECT_EQ(a.trips[0].slots[i].up_heard_by,
              b.trips[0].slots[i].up_heard_by);
  }
  EXPECT_EQ(a.trips[0].vehicle_beacons.size(),
            b.trips[0].vehicle_beacons.size());
}

TEST(Campaign, TripsAreIndependentRealisations) {
  const Testbed bed = make_vanlan();
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 2;
  cfg.trip_duration = Time::seconds(20.0);
  const auto campaign = generate_campaign(bed, cfg);
  int diff = 0;
  for (std::size_t i = 0; i < campaign.trips[0].slots.size(); ++i)
    if (campaign.trips[0].slots[i].down_heard !=
        campaign.trips[1].slots[i].down_heard)
      ++diff;
  EXPECT_GT(diff, 0);
}

TEST(Campaign, FleetProducesOneTracePerVehiclePerTrip) {
  const Testbed bed = make_vanlan(2);
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 2;
  cfg.trip_duration = Time::seconds(20.0);
  const auto campaign = generate_campaign(bed, cfg);
  ASSERT_EQ(campaign.trips.size(), 4u);  // 2 trips x 2 vehicles
  // Ordered by (day, trip, vehicle).
  EXPECT_EQ(campaign.trips[0].trip, 0);
  EXPECT_EQ(campaign.trips[0].vehicle, bed.vehicle_ids()[0]);
  EXPECT_EQ(campaign.trips[1].trip, 0);
  EXPECT_EQ(campaign.trips[1].vehicle, bed.vehicle_ids()[1]);
  EXPECT_EQ(campaign.trips[2].trip, 1);
  for (const auto& trip : campaign.trips) {
    EXPECT_EQ(trip.slots.size(), 200u);
    EXPECT_FALSE(trip.vehicle_beacons.empty());
  }
  // The two vehicles ride different parts of the campus, so their logs of
  // the same trip must differ.
  int diff = 0;
  for (std::size_t i = 0; i < campaign.trips[0].slots.size(); ++i)
    if (campaign.trips[0].slots[i].down_heard !=
        campaign.trips[1].slots[i].down_heard)
      ++diff;
  EXPECT_GT(diff, 0);
}

TEST(Campaign, TracesNameTheirLoggingVehicle) {
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(10.0);
  const auto solo = generate_campaign(make_vanlan(), cfg);
  EXPECT_EQ(solo.trips[0].vehicle, make_vanlan().vehicle());
  const Testbed duo = make_dieselnet(1, 2);
  const auto fleet = generate_campaign(duo, cfg);
  ASSERT_EQ(fleet.trips.size(), 2u);
  EXPECT_EQ(fleet.trips[0].vehicle, duo.vehicle_ids()[0]);
  EXPECT_EQ(fleet.trips[1].vehicle, duo.vehicle_ids()[1]);
}

/// FNV-1a 64 of one trace's `vifi-trace v1` bytes, as 16 hex digits.
std::string trace_digest(const trace::MeasurementTrace& t) {
  std::ostringstream os;
  trace::save_trace(t, os);
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : os.str()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

// The bytes of every trace a full-lap campaign produces, pinned: any
// change to mobility, the channel's draw order or the generator's logging
// moves a digest. Fleets of three put vehicles across the lap wrap and
// (DieselNet) on every stop's dwell; VanLAN also logs BS-to-BS beacons.
TEST(Campaign, TraceBytesArePinned) {
  struct Case {
    const char* testbed;
    int fleet;
    std::vector<std::string> digests;  // (day, trip, vehicle) order
  };
  const std::vector<Case> cases = {
      {"VanLAN",
       1,
       {"23bc537d1010e863", "f2a3fac3ee3b925d", "bfc583e27474370d",
        "155a10df08780237"}},
      {"VanLAN",
       3,
       {"6c328ddc16b0a4bd", "60da508fd3ac0898", "7cf68f5911955084",
        "c833af77bc9fea8d", "9b570bc3d4510962", "f66af25a7c8de0f8",
        "d9d4aa086efd3a53", "d11ce5cde3cb5952", "9e8c8f7a7851a995",
        "14de132d638b2db2", "0ff1829d4c25a704", "ff7d3fcb7c8a8d97"}},
      {"DieselNet-Ch1",
       1,
       {"55e25260e5e6a518", "ab2b4d40b3ea3145", "d86adfa04c43eab7",
        "6cd5d80c28ced30b"}},
      {"DieselNet-Ch1",
       3,
       {"70b0d9117ed545ff", "a9acc82266f4e22f", "3f87f611ff91cefc",
        "733fafa3e0ab72ac", "e24a3a566c937cae", "ff9b13b62ef0777d",
        "a0e5fb6590e9584a", "d9f2766c635d1577", "459cc26140454738",
        "69b74cb4accfb638", "699d3cb15dae1a76", "3fb2f89222a51d83"}},
  };
  for (const Case& c : cases) {
    const std::string name = c.testbed;
    const Testbed bed =
        name == "VanLAN" ? make_vanlan(c.fleet) : make_dieselnet(1, c.fleet);
    CampaignConfig cfg;
    cfg.days = 2;
    cfg.trips_per_day = 2;
    cfg.seed = 29;
    cfg.log_probes = true;
    cfg.log_bs_beacons = name == "VanLAN";
    const trace::Campaign campaign = generate_campaign(bed, cfg);
    std::vector<std::string> got;
    got.reserve(campaign.trips.size());
    for (const auto& t : campaign.trips) got.push_back(trace_digest(t));
    std::string listing;
    for (const std::string& d : got) listing += "\"" + d + "\", ";
    EXPECT_EQ(got, c.digests) << name << " fleet " << c.fleet << ": "
                              << listing;
  }
}

TEST(FilterSubset, DropsExcludedBsEverywhere) {
  const Testbed bed = make_vanlan();
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(30.0);
  const auto campaign = generate_campaign(bed, cfg);
  const std::vector<sim::NodeId> keep{bed.bs_ids()[0], bed.bs_ids()[5]};
  const auto filtered = filter_to_bs_subset(campaign.trips[0], keep);
  EXPECT_EQ(filtered.bs_ids, keep);
  const std::set<sim::NodeId> allowed(keep.begin(), keep.end());
  for (const auto& slot : filtered.slots) {
    for (auto id : slot.down_heard) EXPECT_TRUE(allowed.contains(id));
    for (auto id : slot.up_heard_by) EXPECT_TRUE(allowed.contains(id));
  }
  for (const auto& b : filtered.vehicle_beacons)
    EXPECT_TRUE(allowed.contains(b.bs));
}

TEST(FilterSubset, FullSubsetIsIdentity) {
  const Testbed bed = make_vanlan();
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(10.0);
  const auto campaign = generate_campaign(bed, cfg);
  const auto filtered =
      filter_to_bs_subset(campaign.trips[0], campaign.trips[0].bs_ids);
  EXPECT_EQ(filtered.vehicle_beacons.size(),
            campaign.trips[0].vehicle_beacons.size());
  EXPECT_EQ(filtered.slots.size(), campaign.trips[0].slots.size());
}

TEST(BurstProbe, ProducesExpectedCounts) {
  const Testbed bed = make_vanlan();
  const auto run = burst_probe_single(bed, bed.bs_ids()[0],
                                      Time::seconds(10.0), Time::millis(10),
                                      Rng(1));
  EXPECT_EQ(run.received.size(), 1000u);
  EXPECT_EQ(run.in_range.size(), 1000u);
}

TEST(BurstProbe, InRangeMaskTracksGeometry) {
  const Testbed bed = make_vanlan();
  // Probe for a whole trip: the vehicle passes in and out of range of any
  // single BS, so the mask must contain both values.
  const auto run =
      burst_probe_single(bed, bed.bs_ids()[0], bed.trip_duration(),
                         Time::millis(10), Rng(2));
  const auto in = std::count(run.in_range.begin(), run.in_range.end(), true);
  EXPECT_GT(in, 0);
  EXPECT_LT(static_cast<std::size_t>(in), run.in_range.size());
}

TEST(BurstProbe, PairRunsAreAligned) {
  const Testbed bed = make_vanlan();
  const auto run =
      burst_probe_pair(bed, bed.bs_ids()[0], bed.bs_ids()[1],
                       Time::seconds(20.0), Time::millis(20), Rng(3));
  EXPECT_EQ(run.a_received.size(), run.b_received.size());
  EXPECT_EQ(run.a_received.size(), run.both_in_range.size());
  EXPECT_EQ(run.a_received.size(), 1000u);
}

TEST(LiveTrip, WarmupEstablishesProtocolState) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, core::SystemConfig{}, 42);
  trip.run_until(LiveTrip::warmup());
  EXPECT_TRUE(trip.system().vehicle().anchor().valid());
  EXPECT_GE(trip.simulator().now(), LiveTrip::warmup());
}

TEST(LiveTrip, SameSeedSameAnchorSequence) {
  const Testbed bed = make_vanlan();
  LiveTrip a(bed, core::SystemConfig{}, 43);
  LiveTrip b(bed, core::SystemConfig{}, 43);
  a.run_until(Time::seconds(20.0));
  b.run_until(Time::seconds(20.0));
  EXPECT_EQ(a.system().vehicle().anchor(), b.system().vehicle().anchor());
  EXPECT_EQ(a.system().vehicle().anchor_switches(),
            b.system().vehicle().anchor_switches());
}

TEST(LiveTrip, FleetBuildsOneTransportPerVehicle) {
  const Testbed bed = make_vanlan(2);
  LiveTrip trip(bed, core::SystemConfig{}, 45);
  ASSERT_EQ(trip.transports().size(), 2u);
  EXPECT_EQ(trip.transport().vehicle(), bed.vehicle_ids()[0]);
  EXPECT_EQ(trip.transport(bed.vehicle_ids()[1]).vehicle(),
            bed.vehicle_ids()[1]);
  EXPECT_THROW(trip.transport(sim::NodeId(99)), ContractViolation);
  EXPECT_EQ(trip.system().vehicle_ids().size(), 2u);
}

TEST(LiveTrip, FleetVehiclesAnchorAndExchangeIndependently) {
  const Testbed bed = make_vanlan(2);
  LiveTrip trip(bed, core::SystemConfig{}, 46);
  int up_a = 0, up_b = 0, down_a = 0, down_b = 0;
  trip.transport(bed.vehicle_ids()[0])
      .subscribe(7, [&](const net::PacketRef& p) {
        (p->dir == net::Direction::Upstream ? up_a : down_a) += 1;
      });
  trip.transport(bed.vehicle_ids()[1])
      .subscribe(7, [&](const net::PacketRef& p) {
        (p->dir == net::Direction::Upstream ? up_b : down_b) += 1;
      });
  trip.run_until(LiveTrip::warmup());
  EXPECT_TRUE(trip.system().vehicle(bed.vehicle_ids()[0]).anchor().valid());
  EXPECT_TRUE(trip.system().vehicle(bed.vehicle_ids()[1]).anchor().valid());
  for (int i = 0; i < 50; ++i) {
    for (const auto v : bed.vehicle_ids()) {
      trip.transport(v).send(net::Direction::Upstream, 200, 7,
                             static_cast<std::uint64_t>(i));
      trip.transport(v).send(net::Direction::Downstream, 200, 7,
                             static_cast<std::uint64_t>(i));
    }
    trip.run_until(trip.simulator().now() + Time::millis(100.0));
  }
  trip.run_until(trip.simulator().now() + Time::seconds(1.0));
  // Both vehicles' flows moved traffic, demultiplexed per vehicle.
  EXPECT_GT(up_a, 0);
  EXPECT_GT(up_b, 0);
  EXPECT_GT(down_a, 0);
  EXPECT_GT(down_b, 0);
}

TEST(LiveTrip, FleetTripIsDeterministicPerSeed) {
  const Testbed bed = make_vanlan(2);
  LiveTrip a(bed, core::SystemConfig{}, 47);
  LiveTrip b(bed, core::SystemConfig{}, 47);
  a.run_until(Time::seconds(15.0));
  b.run_until(Time::seconds(15.0));
  for (const auto v : bed.vehicle_ids()) {
    EXPECT_EQ(a.system().vehicle(v).anchor(), b.system().vehicle(v).anchor());
    EXPECT_EQ(a.system().vehicle(v).anchor_switches(),
              b.system().vehicle(v).anchor_switches());
  }
}

TEST(LiveTrip, TraceDrivenFleetConstructorConnectsEveryVehicle) {
  const Testbed bed = make_dieselnet(1, 2);
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(30.0);
  cfg.log_probes = false;
  const auto campaign = generate_campaign(bed, cfg);
  ASSERT_EQ(campaign.trips.size(), 2u);
  LiveTrip trip(bed, {&campaign.trips[0], &campaign.trips[1]},
                core::SystemConfig{}, 48);
  trip.run_until(Time::seconds(10.0));
  // Each vehicle's schedule registers its own id: some BS must be
  // reachable from each within the trace horizon.
  for (const auto v : bed.vehicle_ids()) {
    double best = 0.0;
    for (const auto bs : bed.bs_ids())
      for (int s = 0; s < 30; ++s)
        best = std::max(best, trip.loss_model().reception_prob(
                                  bs, v, Time::seconds(s + 0.5)));
    EXPECT_GT(best, 0.0) << "vehicle " << v.value();
  }
}

TEST(LiveTrip, TraceDrivenFleetConstructorRejectsForeignOrDuplicateTraces) {
  const Testbed bed = make_dieselnet(1, 2);
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(20.0);
  cfg.log_probes = false;
  const auto campaign = generate_campaign(bed, cfg);
  ASSERT_EQ(campaign.trips.size(), 2u);
  // Duplicate logger.
  EXPECT_THROW(LiveTrip(bed, {&campaign.trips[0], &campaign.trips[0]},
                        core::SystemConfig{}, 49),
               ContractViolation);
  // Trace logged by an id outside this testbed's vehicle range.
  trace::MeasurementTrace foreign = campaign.trips[0];
  foreign.vehicle = sim::NodeId(99);
  EXPECT_THROW(LiveTrip(bed, {&foreign, &campaign.trips[1]},
                        core::SystemConfig{}, 50),
               ContractViolation);
}

TEST(ChannelizedLoss, EachFleetVehicleIsGatedByItsOwnServingChannel) {
  // Regression: the single-vehicle wrapper treated a second vehicle as a
  // channel-0 BS, so its cross-channel deafness followed the *plan* rather
  // than its serving channel. Two vehicles on different anchors/channels
  // must each get correct gating.
  testing::ScriptedLoss base;
  const sim::NodeId bs0(0), bs1(1), veh_a(2), veh_b(3);
  for (const auto tx : {bs0, bs1, veh_a, veh_b})
    for (const auto rx : {bs0, bs1, veh_a, veh_b})
      if (tx != rx) base.set_directed(tx, rx, 1.0);

  ChannelPlan plan;
  plan.assign(bs0, 0);
  plan.assign(bs1, 1);
  // Vehicle A serves on channel 0 (anchored at bs0), B on channel 1.
  std::map<sim::NodeId, int> serving{{veh_a, 0}, {veh_b, 1}};
  ChannelizedLoss loss(
      base, plan, std::vector<sim::NodeId>{veh_a, veh_b},
      /*aux_radios=*/false,
      [&serving](sim::NodeId v) { return serving.at(v); });

  const Time t = Time::zero();
  // A is heard only by its same-channel BS; likewise B.
  EXPECT_GT(loss.reception_prob(veh_a, bs0, t), 0.0);
  EXPECT_EQ(loss.reception_prob(veh_a, bs1, t), 0.0);
  EXPECT_EQ(loss.reception_prob(veh_b, bs0, t), 0.0);
  EXPECT_GT(loss.reception_prob(veh_b, bs1, t), 0.0);
  // Downlink beacon visibility stays open from any BS to any vehicle.
  EXPECT_GT(loss.reception_prob(bs1, veh_a, t), 0.0);
  EXPECT_GT(loss.reception_prob(bs0, veh_b, t), 0.0);
  // Vehicles on different serving channels cannot overhear each other.
  EXPECT_EQ(loss.reception_prob(veh_a, veh_b, t), 0.0);
  serving[veh_b] = 0;  // B hands off to a channel-0 anchor
  EXPECT_GT(loss.reception_prob(veh_b, bs0, t), 0.0);
  EXPECT_EQ(loss.reception_prob(veh_b, bs1, t), 0.0);
  EXPECT_GT(loss.reception_prob(veh_a, veh_b, t), 0.0);
}

TEST(ChannelizedLoss, AuxRadiosRestoreCrossChannelOverhearing) {
  testing::ScriptedLoss base;
  const sim::NodeId bs0(0), bs1(1), veh_a(2), veh_b(3);
  for (const auto tx : {bs0, bs1, veh_a, veh_b})
    for (const auto rx : {bs0, bs1, veh_a, veh_b})
      if (tx != rx) base.set_directed(tx, rx, 1.0);
  ChannelPlan plan;
  plan.assign(bs0, 0);
  plan.assign(bs1, 1);
  ChannelizedLoss loss(
      base, plan, std::vector<sim::NodeId>{veh_a, veh_b},
      /*aux_radios=*/true, [](sim::NodeId v) { return v.value() == 2 ? 0 : 1; });
  const Time t = Time::zero();
  for (const auto bs : {bs0, bs1})
    for (const auto v : {veh_a, veh_b}) {
      EXPECT_GT(loss.reception_prob(v, bs, t), 0.0);
      EXPECT_GT(loss.reception_prob(bs, v, t), 0.0);
    }
  EXPECT_GT(loss.reception_prob(bs0, bs1, t), 0.0);
  EXPECT_GT(loss.reception_prob(veh_a, veh_b, t), 0.0);
}

TEST(ChannelizedLoss, SampleMatchesProbThenDeliveryOnAudibleAndGatedLinks) {
  // Two identical stateful bases: one wrapper answers through sample(),
  // the other through reception_prob then sample_delivery. Every link
  // drops every third frame, and B hands off after 5 gated frames, so a
  // base draw skipped on a gated link shows up as a diverging delivery
  // once the link is audible.
  const sim::NodeId bs0(0), bs1(1), veh_a(2), veh_b(3);
  const std::vector<sim::NodeId> nodes{bs0, bs1, veh_a, veh_b};
  testing::ScriptedLoss base_one, base_two;
  for (testing::ScriptedLoss* base : {&base_one, &base_two})
    for (const auto tx : nodes)
      for (const auto rx : nodes)
        if (tx != rx) {
          base->set_directed(tx, rx, 0.6 + 0.1 * tx.value());
          base->set_period_drop(tx, rx, 3);
        }
  ChannelPlan plan;
  plan.assign(bs0, 0);
  plan.assign(bs1, 1);
  std::map<sim::NodeId, int> serving{{veh_a, 0}, {veh_b, 1}};
  const auto serving_fn = [&serving](sim::NodeId v) { return serving.at(v); };
  const std::vector<sim::NodeId> fleet{veh_a, veh_b};
  ChannelizedLoss one(base_one, plan, fleet, /*aux_radios=*/false, serving_fn);
  ChannelizedLoss two(base_two, plan, fleet, /*aux_radios=*/false, serving_fn);

  int gated = 0, audible = 0;
  for (int step = 0; step < 12; ++step) {
    if (step == 5) serving[veh_b] = 0;  // B hands off mid-run
    const Time t = Time::millis(100 * step);
    for (const auto tx : nodes)
      for (const auto rx : nodes) {
        if (tx == rx) continue;
        const channel::Reception got = one.sample(tx, rx, t, 0.75);
        const double prob = two.reception_prob(tx, rx, t);
        const bool delivered = two.sample_delivery(tx, rx, t);
        EXPECT_EQ(got.audible, prob >= 0.75)
            << tx << "->" << rx << " step " << step;
        EXPECT_EQ(got.delivered, delivered)
            << tx << "->" << rx << " step " << step;
        ++(prob == 0.0 ? gated : audible);
      }
  }
  EXPECT_GT(gated, 0);
  EXPECT_GT(audible, 0);
}

TEST(LiveTrip, TraceDrivenConstructorUsesSchedule) {
  const Testbed bed = make_dieselnet(1);
  CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 1;
  cfg.trip_duration = Time::seconds(30.0);
  cfg.log_probes = false;
  const auto campaign = generate_campaign(bed, cfg);
  LiveTrip trip(bed, {&campaign.trips[0]}, core::SystemConfig{}, 44);
  trip.run_until(Time::seconds(10.0));
  // The loss model must be the schedule, not the stochastic channel:
  // beyond the trace horizon everything is unreachable.
  EXPECT_EQ(trip.loss_model().reception_prob(bed.bs_ids()[0], bed.vehicle(),
                                             Time::seconds(10'000.0)),
            0.0);
}

}  // namespace
}  // namespace vifi::scenario
