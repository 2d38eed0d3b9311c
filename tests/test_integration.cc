// End-to-end integration tests: full stack (channel + MAC + backplane +
// ViFi + applications) on the VanLAN testbed.

#include <gtest/gtest.h>

#include "apps/cbr.h"
#include "apps/tcp.h"
#include "apps/transfer_driver.h"
#include "apps/voip.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "scenario/testbed.h"

namespace vifi {
namespace {

using namespace vifi::scenario;

core::SystemConfig vifi_config() {
  core::SystemConfig cfg;
  cfg.vifi.max_retx = 3;
  return cfg;
}

core::SystemConfig brr_config() {
  core::SystemConfig cfg;
  cfg.vifi.diversity = false;
  cfg.vifi.salvage = false;
  cfg.vifi.max_retx = 3;
  return cfg;
}

TEST(Integration, VehicleAcquiresAnchorAfterWarmup) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), /*trip_seed=*/100);
  trip.run_until(LiveTrip::warmup());
  EXPECT_TRUE(trip.system().vehicle().anchor().valid());
}

TEST(Integration, AnchorRegistersWithGateway) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 101);
  trip.run_until(LiveTrip::warmup());
  const sim::NodeId anchor = trip.system().vehicle().anchor();
  ASSERT_TRUE(anchor.valid());
  EXPECT_EQ(trip.system().host().registered_anchor(bed.vehicle()), anchor);
}

TEST(Integration, UpstreamPacketsReachHost) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 102);
  trip.run_until(LiveTrip::warmup());
  int delivered = 0;
  trip.system().host().set_delivery_handler(
      bed.vehicle(), [&](const net::PacketRef&) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    trip.system().send_up(200, 1, static_cast<std::uint64_t>(i));
    trip.run_until(trip.simulator().now() + Time::millis(100.0));
  }
  trip.run_until(trip.simulator().now() + Time::seconds(2.0));
  EXPECT_GT(delivered, 35);  // most packets make it despite the channel
}

TEST(Integration, DownstreamPacketsReachVehicle) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 103);
  trip.run_until(LiveTrip::warmup());
  int delivered = 0;
  trip.system().vehicle().set_delivery_handler(
      [&](const net::PacketRef&) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    trip.system().send_down(200, 1, static_cast<std::uint64_t>(i));
    trip.run_until(trip.simulator().now() + Time::millis(100.0));
  }
  trip.run_until(trip.simulator().now() + Time::seconds(2.0));
  EXPECT_GT(delivered, 35);
}

TEST(Integration, NoDuplicateDeliveriesToApps) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 104);
  trip.run_until(LiveTrip::warmup());
  std::map<std::uint64_t, int> seen;
  trip.system().vehicle().set_delivery_handler(
      [&](const net::PacketRef& p) { ++seen[p->id]; });
  for (int i = 0; i < 100; ++i) {
    trip.system().send_down(100, 1, static_cast<std::uint64_t>(i));
    trip.run_until(trip.simulator().now() + Time::millis(50.0));
  }
  trip.run_until(trip.simulator().now() + Time::seconds(2.0));
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "packet " << id;
}

TEST(Integration, CbrWorkloadDeliversBothDirections) {
  const Testbed bed = make_vanlan();
  core::SystemConfig cfg = vifi_config();
  cfg.vifi.max_retx = 0;  // link-layer experiment setting (§5.2)
  LiveTrip trip(bed, cfg, 105);
  trip.run_until(LiveTrip::warmup());
  apps::CbrWorkload cbr(trip.simulator(), trip.transport());
  const Time end = trip.simulator().now() + Time::seconds(30.0);
  cbr.start(end);
  trip.run_until(end + Time::seconds(1.0));
  EXPECT_GT(cbr.sent(), 500);
  EXPECT_GT(cbr.delivered(), cbr.sent() / 3);
}

TEST(Integration, VifiDeliversMoreThanBrrOnLinkWorkload) {
  // The headline link-layer claim, in miniature: diversity relaying
  // recovers packets hard handoff loses.
  const Testbed bed = make_vanlan();
  auto run = [&](core::SystemConfig cfg) {
    cfg.vifi.max_retx = 0;
    LiveTrip trip(bed, cfg, 106);  // same seed: same channel realisation
    trip.run_until(LiveTrip::warmup());
    apps::CbrWorkload cbr(trip.simulator(), trip.transport());
    const Time end = trip.simulator().now() + Time::seconds(60.0);
    cbr.start(end);
    trip.run_until(end + Time::seconds(1.0));
    return cbr.delivered();
  };
  const auto vifi = run(vifi_config());
  const auto brr = run(brr_config());
  EXPECT_GT(vifi, brr);
}

TEST(Integration, TcpTransferCompletesOverVifi) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 107);
  trip.run_until(LiveTrip::warmup());
  apps::TcpTransfer xfer(trip.simulator(), trip.transport(), 500,
                         net::Direction::Downstream, 10 * 1024);
  xfer.start();
  trip.run_until(trip.simulator().now() + Time::seconds(30.0));
  EXPECT_TRUE(xfer.complete());
  EXPECT_EQ(xfer.bytes_acked(), 10 * 1024);
}

TEST(Integration, TransferDriverRunsBackToBack) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 108);
  trip.run_until(LiveTrip::warmup());
  apps::TransferDriver driver(trip.simulator(), trip.transport(),
                              net::Direction::Downstream);
  const Time end = trip.simulator().now() + Time::seconds(60.0);
  driver.start(end);
  trip.run_until(end + Time::seconds(1.0));
  const auto result = driver.result();
  EXPECT_GT(result.completed, 5);
  EXPECT_GT(result.median_transfer_time_s(), 0.0);
}

TEST(Integration, VoipCallProducesScoredWindows) {
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 109);
  trip.run_until(LiveTrip::warmup());
  apps::VoipCall call(trip.simulator(), trip.transport());
  const Time end = trip.simulator().now() + Time::seconds(30.0);
  call.start(end);
  trip.run_until(end + Time::seconds(1.0));
  const auto result = call.result();
  EXPECT_GT(result.packets_sent, 2000);
  EXPECT_FALSE(result.window_mos.empty());
  EXPECT_GT(result.mean_mos, 1.0);
}

TEST(Integration, TraceDrivenTripRunsProtocol) {
  // DieselNet methodology: beacon-log trace -> loss schedule -> live run.
  const Testbed bed = make_dieselnet(1);
  CampaignConfig cc;
  cc.days = 1;
  cc.trips_per_day = 1;
  cc.trip_duration = Time::seconds(120.0);
  cc.log_probes = false;
  const auto campaign = generate_campaign(bed, cc);
  ASSERT_EQ(campaign.trips.size(), 1u);

  LiveTrip trip(bed, {&campaign.trips[0]}, vifi_config(), 110);
  trip.run_until(LiveTrip::warmup());
  apps::CbrWorkload cbr(trip.simulator(), trip.transport());
  const Time end = Time::seconds(100.0);
  cbr.start(end);
  trip.run_until(end + Time::seconds(1.0));
  EXPECT_GT(cbr.delivered(), 0);
}

TEST(Integration, SalvageMovesPacketsBetweenAnchors) {
  // Over a long multi-anchor drive with steady downstream traffic, at
  // least some packets should be recovered via salvaging.
  const Testbed bed = make_vanlan();
  LiveTrip trip(bed, vifi_config(), 111);
  trip.run_until(LiveTrip::warmup());
  for (int i = 0; i < 1200; ++i) {
    trip.system().send_down(500, 2, static_cast<std::uint64_t>(i));
    trip.run_until(trip.simulator().now() + Time::millis(100.0));
  }
  EXPECT_GT(trip.system().vehicle().anchor_switches(), 1u);
  EXPECT_GE(trip.system().stats().salvaged(), 0);
}

}  // namespace
}  // namespace vifi
