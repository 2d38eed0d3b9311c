// Unit tests for trace records, serialisation round-trips, and the §5.1
// beacon-log -> loss-schedule conversion.

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "trace/loss_schedule.h"
#include "trace/observations.h"
#include "trace/trace_io.h"

namespace vifi::trace {
namespace {

using sim::NodeId;

/// One slot at 100 ms in which the vehicle decoded BS0 (none if
/// \p deaf) and both BSes decoded the vehicle.
MeasurementTrace tiny_trace(bool deaf = false) {
  MeasurementTrace t;
  t.testbed = "TestBed";
  t.day = 1;
  t.trip = 2;
  t.duration = Time::seconds(3.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  const std::vector<NodeId> down{NodeId(0)}, up{NodeId(0), NodeId(1)};
  t.add_slot(Time::millis(100.0), {12.5, 7.25},
             deaf ? std::span<const NodeId>{} : down, up);
  t.vehicle_beacons.push_back({Time::millis(137.0), NodeId(0), -61.5});
  t.vehicle_beacons.push_back({Time::millis(1137.0), NodeId(1), -70.25});
  t.bs_beacons.push_back({Time::millis(200.0), NodeId(0), NodeId(1)});
  return t;
}

TEST(ProbeLog, MembershipQueries) {
  const MeasurementTrace t = tiny_trace();
  EXPECT_TRUE(t.slot_down(0, NodeId(0)));
  EXPECT_FALSE(t.slot_down(0, NodeId(1)));
  EXPECT_TRUE(t.slot_up(0, NodeId(1)));
  EXPECT_FALSE(t.slot_up(0, NodeId(2)));
  EXPECT_EQ(t.slots.down_bits(0), 0b01u);
  EXPECT_EQ(t.slots.up_bits(0), 0b11u);
  EXPECT_EQ(t.slot_successes(0, 5, NodeId(0)), 2);
}

TEST(BeaconCounts, PerSecondBuckets) {
  MeasurementTrace t = tiny_trace();
  t.vehicle_beacons.push_back({Time::millis(980.0), NodeId(0), -60.0});
  const auto counts = beacon_counts_per_second(t);
  ASSERT_EQ(counts.at(NodeId(0)).size(), 3u);
  EXPECT_EQ(counts.at(NodeId(0))[0], 2);
  EXPECT_EQ(counts.at(NodeId(0))[1], 0);
  EXPECT_EQ(counts.at(NodeId(1))[1], 1);
}

TEST(Campaign, DayAndTripOrganisation) {
  Campaign c;
  for (int day = 0; day < 2; ++day)
    for (int trip = 0; trip < 3; ++trip) {
      MeasurementTrace t;
      t.day = day;
      t.trip = trip;
      c.trips.push_back(t);
    }
  EXPECT_EQ(c.days(), 2);
  EXPECT_EQ(c.trips_on_day(0).size(), 3u);
  EXPECT_EQ(c.trips_on_day(5).size(), 0u);
}

TEST(TraceIo, RoundTripsAllFields) {
  const MeasurementTrace t = tiny_trace();
  std::stringstream ss;
  save_trace(t, ss);
  const MeasurementTrace u = load_trace(ss);

  EXPECT_EQ(u.testbed, t.testbed);
  EXPECT_EQ(u.day, t.day);
  EXPECT_EQ(u.trip, t.trip);
  EXPECT_EQ(u.duration, t.duration);
  EXPECT_EQ(u.beacons_per_second, t.beacons_per_second);
  EXPECT_EQ(u.bs_ids, t.bs_ids);
  ASSERT_EQ(u.slots.size(), 1u);
  EXPECT_EQ(u.slots.start(0), t.slots.start(0));
  EXPECT_EQ(u.slots.pos(0), t.slots.pos(0));
  EXPECT_TRUE(u.slots == t.slots);
  ASSERT_EQ(u.vehicle_beacons.size(), 2u);
  EXPECT_EQ(u.vehicle_beacons[0].bs, NodeId(0));
  EXPECT_DOUBLE_EQ(u.vehicle_beacons[0].rssi_dbm, -61.5);
  ASSERT_EQ(u.bs_beacons.size(), 1u);
  EXPECT_EQ(u.bs_beacons[0].tx, NodeId(0));
  EXPECT_EQ(u.bs_beacons[0].rx, NodeId(1));
}

TEST(TraceIo, LoggingVehicleRoundTripsAndLegacyTracesStayValid) {
  MeasurementTrace t = tiny_trace();
  // Legacy traces carry no vehicle line and load with an invalid id.
  {
    std::stringstream ss;
    save_trace(t, ss);
    EXPECT_EQ(ss.str().find("vehicle "), std::string::npos);
    EXPECT_FALSE(load_trace(ss).vehicle.valid());
  }
  // Fleet traces name their logger and it survives the round trip.
  t.vehicle = NodeId(11);
  std::stringstream ss;
  save_trace(t, ss);
  EXPECT_EQ(load_trace(ss).vehicle, NodeId(11));
}

TEST(TraceIo, EmptySlotListsRoundTrip) {
  const MeasurementTrace t = tiny_trace(/*deaf=*/true);
  std::stringstream ss;
  save_trace(t, ss);
  const MeasurementTrace u = load_trace(ss);
  EXPECT_TRUE(u.slots.down_ids(0).empty());
  EXPECT_EQ(u.slots.down_bits(0), 0u);
  EXPECT_EQ(u.slots.up_ids(0).size(), 2u);
}

TEST(TraceIo, BsLinesAfterSlotLinesStillGiveTheSlotsTheirBits) {
  std::stringstream ss;
  ss << "# vifi-trace v1\n"
     << "trace X day 0 trip 0 duration_us 1000000 bps 10\n"
     << "bs 4\n"
     << "slot 0 1.5 2.5 down 4 9 up 9\n"
     << "bs 9\n";
  const MeasurementTrace t = load_trace(ss);
  EXPECT_EQ(t.slots.down_bits(0), 0b11u);
  EXPECT_EQ(t.slots.up_bits(0), 0b10u);
  EXPECT_TRUE(t.slot_up(0, NodeId(9)));
}

/// The message load_trace throws for \p text, or "" if it loads.
std::string load_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    load_trace(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, SlotIdsMustBeAllDigits) {
  const std::string head =
      "# vifi-trace v1\ntrace X day 0 trip 0 duration_us 1000000 bps 10\n";
  EXPECT_EQ(load_error(head + "slot 0 1 2 down 3 up 3\n"), "");
  for (const char* id : {"3x", "x3", "+3", "-3", "3.0", "99999999999"}) {
    const std::string what =
        load_error(head + "slot 0 1 2 down " + id + " up 3\n");
    EXPECT_NE(what.find("trace parse error at line 3: bad node id '" +
                        std::string(id) + "'"),
              std::string::npos)
        << id << ": " << what;
  }
  EXPECT_NE(load_error(head + "slot 0 1 2 down up 3x\n").find("at line 3"),
            std::string::npos);
}

TEST(TraceIo, HeaderKeywordsAreChecked) {
  const std::string magic = "# vifi-trace v1\n";
  EXPECT_EQ(load_error(magic + "trace X day 0 trip 0 duration_us 1 bps 10\n"),
            "");
  for (const char* header : {"trace VanLAN foo 0 bar 0 baz 1000000 qux 10",
                             "trace X day 0 trip 0 duration_us 1 BPS 10",
                             "trace X trip 0 day 0 duration_us 1 bps 10",
                             "trace X day 0 trip 0 duration 1 bps 10"}) {
    const std::string what = load_error(magic + header + "\n");
    EXPECT_NE(what.find("trace parse error at line 2: bad or truncated trace "
                        "header"),
              std::string::npos)
        << header << ": " << what;
  }
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss("not a trace\n");
  try {
    load_trace(ss);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a vifi-trace file"),
              std::string::npos);
  }
}

TEST(TraceIo, ForeignVersionGetsItsOwnMessage) {
  std::stringstream ss("# vifi-trace v7\n");
  try {
    load_trace(ss);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported trace version"), std::string::npos);
    EXPECT_NE(what.find("vifi-trace v7"), std::string::npos);
  }
}

TEST(TraceIo, TruncatedLinesReportTheLineNumber) {
  std::stringstream ss;
  ss << "# vifi-trace v1\n"
     << "trace X day 0 trip 0 duration_us 1000000 bps 10\n"
     << "beacon 1000 0\n";  // rssi missing
  try {
    load_trace(ss);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at line 3"), std::string::npos);
    EXPECT_NE(what.find("truncated beacon line"), std::string::npos);
  }
}

TEST(TraceIo, SlotLineWithoutUpMarkerIsTruncation) {
  std::stringstream ss;
  ss << "# vifi-trace v1\n"
     << "trace X day 0 trip 0 duration_us 1000000 bps 10\n"
     << "slot 0 1.5 2.5 down 0 1\n";  // cut before " up"
  try {
    load_trace(ss);
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing 'up' marker"),
              std::string::npos);
  }
}

TEST(TraceIo, RejectsNonPositiveBeaconRate) {
  std::stringstream ss;
  ss << "# vifi-trace v1\n"
     << "trace X day 0 trip 0 duration_us 1000000 bps 0\n";
  EXPECT_THROW(load_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownTag) {
  std::stringstream ss;
  ss << "# vifi-trace v1\n"
     << "trace X day 0 trip 0 duration_us 1000000 bps 10\n"
     << "bogus 1 2 3\n";
  EXPECT_THROW(load_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss;
  ss << "# vifi-trace v1\n"
     << "bs 0\n";
  EXPECT_THROW(load_trace(ss), std::runtime_error);
}

TEST(LossSchedule, VehicleLinkFollowsBeaconRatio) {
  MeasurementTrace t;
  t.duration = Time::seconds(2.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0)};
  const NodeId veh(5);
  // 7 of 10 beacons in second 0; none in second 1.
  for (int i = 0; i < 7; ++i)
    t.vehicle_beacons.push_back({Time::millis(i * 10.0), NodeId(0), -60.0});

  t.vehicle = veh;
  const auto model = build_fleet_loss_schedule({&t}, false, Rng(1));
  EXPECT_NEAR(model->loss_rate(veh, NodeId(0), Time::millis(500.0)), 0.3,
              1e-9);
  EXPECT_NEAR(model->loss_rate(NodeId(0), veh, Time::millis(500.0)), 0.3,
              1e-9);  // symmetric
  EXPECT_NEAR(model->loss_rate(veh, NodeId(0), Time::millis(1500.0)), 1.0,
              1e-9);
}

TEST(LossSchedule, CovisibilityRule) {
  MeasurementTrace t;
  t.duration = Time::seconds(3.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1), NodeId(2)};
  // BS0 and BS1 heard within the same second; BS2 only much later.
  t.vehicle_beacons.push_back({Time::millis(100.0), NodeId(0), -60.0});
  t.vehicle_beacons.push_back({Time::millis(200.0), NodeId(1), -60.0});
  t.vehicle_beacons.push_back({Time::millis(2500.0), NodeId(2), -60.0});

  EXPECT_TRUE(ever_covisible(t, NodeId(0), NodeId(1)));
  EXPECT_FALSE(ever_covisible(t, NodeId(0), NodeId(2)));

  t.vehicle = NodeId(7);
  const auto model = build_fleet_loss_schedule({&t}, false, Rng(2));
  // Co-visible pair: Uniform(0,1) constant loss -> strictly < 1.
  EXPECT_LT(model->loss_rate(NodeId(0), NodeId(1), Time::zero()), 1.0);
  // Never co-visible: unreachable.
  EXPECT_DOUBLE_EQ(model->loss_rate(NodeId(0), NodeId(2), Time::zero()), 1.0);
}

TEST(LossSchedule, BsBeaconLogsGiveInterBsSchedule) {
  MeasurementTrace t;
  t.duration = Time::seconds(1.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  // 10 of 10 in each direction in second 0 => loss 0.
  for (int i = 0; i < 10; ++i) {
    t.bs_beacons.push_back({Time::millis(i * 10.0), NodeId(0), NodeId(1)});
    t.bs_beacons.push_back({Time::millis(i * 10.0), NodeId(1), NodeId(0)});
  }
  t.vehicle = NodeId(9);
  const auto model =
      build_fleet_loss_schedule({&t}, /*use_bs_beacon_logs=*/true, Rng(3));
  EXPECT_NEAR(model->loss_rate(NodeId(0), NodeId(1), Time::millis(500.0)),
              0.0, 1e-9);
}

TEST(FleetLossSchedule, RejectsDuplicateAndForeignTraces) {
  MeasurementTrace a;
  a.testbed = "Bed";
  a.duration = Time::seconds(2.0);
  a.beacons_per_second = 10;
  a.bs_ids = {NodeId(0)};
  a.vehicle = NodeId(1);
  a.vehicle_beacons.push_back({Time::millis(100.0), NodeId(0), -60.0});
  MeasurementTrace b = a;
  b.vehicle = NodeId(2);

  // A valid two-vehicle fleet builds.
  EXPECT_NE(build_fleet_loss_schedule({&a, &b}, false, Rng(1)), nullptr);

  // Duplicate logger.
  try {
    build_fleet_loss_schedule({&a, &a}, false, Rng(1));
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate trace for vehicle n1"),
              std::string::npos);
  }

  // Legacy trace without a logging vehicle.
  MeasurementTrace legacy = a;
  legacy.vehicle = NodeId();
  try {
    build_fleet_loss_schedule({&legacy, &b}, false, Rng(1));
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("names no logging vehicle"),
              std::string::npos);
  }

  // Foreign testbed.
  MeasurementTrace foreign = b;
  foreign.testbed = "OtherBed";
  try {
    build_fleet_loss_schedule({&a, &foreign}, false, Rng(1));
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("foreign trace"), std::string::npos);
  }

  // Same testbed name but a different BS layout is just as foreign.
  MeasurementTrace rewired = b;
  rewired.bs_ids = {NodeId(0), NodeId(5)};
  try {
    build_fleet_loss_schedule({&a, &rewired}, false, Rng(1));
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different BS set"),
              std::string::npos);
  }
}

TEST(LossSchedule, DeterministicInterBsDraws) {
  MeasurementTrace t;
  t.duration = Time::seconds(1.0);
  t.beacons_per_second = 10;
  t.bs_ids = {NodeId(0), NodeId(1)};
  t.vehicle_beacons.push_back({Time::millis(100.0), NodeId(0), -60.0});
  t.vehicle_beacons.push_back({Time::millis(200.0), NodeId(1), -60.0});
  t.vehicle = NodeId(7);
  const auto a = build_fleet_loss_schedule({&t}, false, Rng(42));
  const auto b = build_fleet_loss_schedule({&t}, false, Rng(42));
  EXPECT_DOUBLE_EQ(a->loss_rate(NodeId(0), NodeId(1), Time::zero()),
                   b->loss_rate(NodeId(0), NodeId(1), Time::zero()));
}

}  // namespace
}  // namespace vifi::trace
