// Quickstart: bring up a full ViFi deployment on the VanLAN testbed, drive
// the shuttle for a minute while exchanging packets with a wired host, and
// print what happened.
//
// This is the smallest end-to-end use of the public API:
//   Testbed -> LiveTrip (channel + MAC + backplane + ViFi stack)
//           -> send packets / receive deliveries -> stats.

#include <iostream>

#include "scenario/live.h"
#include "scenario/testbed.h"
#include "util/table.h"

int main() {
  using namespace vifi;

  // 1. The testbed: 11 BSes on the campus, one shuttle, one wired host.
  const scenario::Testbed bed = scenario::make_vanlan();
  std::cout << "Testbed '" << bed.layout().name << "': "
            << bed.bs_ids().size() << " basestations, trip takes "
            << bed.trip_duration().to_string() << "\n";

  // 2. A live trip running the full ViFi stack over a stochastic vehicular
  //    channel. core::SystemConfig{} is ViFi with diversity + salvaging;
  //    see core/config.h for the BRR / Only-Diversity baselines.
  scenario::LiveTrip trip(bed, core::SystemConfig{}, /*trip_seed=*/1);

  // 3. Let beacons flow so the vehicle picks an anchor and the pab gossip
  //    warms up, then look around.
  trip.run_until(scenario::LiveTrip::warmup());
  std::cout << "After warmup the vehicle anchors at BS "
            << trip.system().vehicle().anchor().to_string()
            << " with auxiliaries {";
  for (sim::NodeId aux : trip.system().vehicle().auxiliaries())
    std::cout << " " << aux.to_string();
  std::cout << " }\n\n";

  // 4. Exchange traffic for a minute of driving: one 200-byte packet in
  //    each direction every 100 ms.
  int up_delivered = 0, down_delivered = 0;
  trip.system().host().set_delivery_handler(
      bed.vehicle(), [&](const net::PacketRef&) { ++up_delivered; });
  trip.system().vehicle().set_delivery_handler(
      [&](const net::PacketRef&) { ++down_delivered; });

  const int rounds = 600;
  for (int i = 0; i < rounds; ++i) {
    trip.system().send_up(200, /*flow=*/1, static_cast<std::uint64_t>(i));
    trip.system().send_down(200, /*flow=*/1, static_cast<std::uint64_t>(i));
    trip.run_until(trip.simulator().now() + Time::millis(100.0));
  }
  trip.run_until(trip.simulator().now() + Time::seconds(2.0));

  // 5. Report.
  TextTable table("One minute of driving");
  table.set_header({"metric", "value"});
  table.add_row({"upstream delivered",
                 std::to_string(up_delivered) + " / " + std::to_string(rounds)});
  table.add_row({"downstream delivered",
                 std::to_string(down_delivered) + " / " + std::to_string(rounds)});
  table.add_row({"anchor switches",
                 std::to_string(trip.system().vehicle().anchor_switches())});
  table.add_row({"packets salvaged",
                 std::to_string(trip.system().stats().salvaged())});
  const auto up = trip.system().stats().coordination(net::Direction::Upstream);
  table.add_row({"upstream tx reaching anchor directly",
                 TextTable::pct(up.frac_src_tx_reached_dst)});
  table.add_row({"relays that rescued an upstream tx",
                 TextTable::pct(up.frac_relays_reached_dst)});
  table.print(std::cout);
  return 0;
}
