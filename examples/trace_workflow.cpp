// The fleet trace workflow (§2.2, §5.1 + TraceForge): record a multi-bus
// beacon campaign while the fleet drives, fit a generative model from the
// logs, synthesize an 8-bus fleet of statistically-matched traces, publish
// them as a TraceCatalog, and replay the catalog through the live ViFi
// stack — the paper's DieselNet methodology scaled from "one hand-written
// trip" to "as many fleets as you can imagine".

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "apps/cbr.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/synth.h"
#include "util/table.h"

int main() {
  using namespace vifi;

  // 1. Record: a 2-bus campaign on channel 1, beacons only (we cannot
  //    modify the town's BSes, §2.2). Every vehicle logs its own trace.
  const scenario::Testbed recording_bed = scenario::make_dieselnet(1, 2);
  scenario::CampaignConfig config;
  config.days = 1;
  config.trips_per_day = 2;
  config.log_probes = false;
  config.seed = 4242;
  const trace::Campaign recorded = generate_campaign(recording_bed, config);
  std::size_t beacons = 0;
  for (const auto& t : recorded.trips) beacons += t.vehicle_beacons.size();
  std::cout << "Recorded " << recorded.trips.size() << " traces ("
            << recording_bed.fleet_size() << " buses x " << config.trips_per_day
            << " trips, " << beacons << " beacons)\n";

  // 2. Fit: contact structure, loss levels and Gilbert–Elliott burstiness,
  //    pooled across every bus and trip.
  const tracegen::TraceModel model = tracegen::fit_model(recorded);
  std::cout << "Fitted " << model.links.size() << " BS link models from "
            << model.source_trips << " traces\n";

  // 3. Synthesize: an 8-bus fleet the recording never had, statistically
  //    matched and deterministic per seed.
  tracegen::SynthesisSpec spec;
  spec.vehicles = 8;
  spec.trips_per_day = 1;
  spec.seed = 77;
  const trace::Campaign synthetic = tracegen::synthesize_fleet(model, spec);

  // 4. Publish: a manifest-backed TraceCatalog, the unit replay scenarios
  //    ship in (what traces.cs.umass.edu would carry today).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vifi_trace_workflow")
          .string();
  std::filesystem::remove_all(dir);
  tracegen::write_catalog(dir, "synthetic8", synthetic);
  const auto catalog = tracegen::load_catalog_shared(dir);
  std::cout << "Catalog '" << catalog->name() << "': " << catalog->testbed()
            << ", fleet " << catalog->fleet_size() << ", "
            << catalog->trip_groups() << " trip group(s) in " << dir << "\n\n";

  // 5. Replay: the whole 8-bus fleet rides one trip group; every bus gets
  //    its own transport and CBR probe stream over the fleet loss schedule
  //    built straight from the catalog.
  const scenario::Testbed bed =
      scenario::make_dieselnet(1, catalog->fleet_size());
  scenario::LiveTrip trip(bed, catalog->fleet_trip(0), core::SystemConfig{},
                          /*trip_seed=*/6);
  trip.run_until(scenario::LiveTrip::warmup());
  std::vector<std::unique_ptr<apps::CbrWorkload>> cbrs;
  for (const auto& transport : trip.transports())
    cbrs.push_back(
        std::make_unique<apps::CbrWorkload>(trip.simulator(), *transport));
  // End at the trace's absolute horizon: the loss schedule reads 100%
  // lossy beyond its recorded seconds.
  const Time end = std::max(trip.simulator().now(),
                            catalog->fleet_trip(0).front()->duration);
  for (auto& cbr : cbrs) cbr->start(end);
  trip.run_until(end + Time::seconds(1.0));

  TextTable table("Synthetic 8-bus fleet replay (live ViFi)");
  table.set_header({"bus", "sent", "delivered", "delivery rate"});
  std::int64_t all_sent = 0, all_delivered = 0;
  for (std::size_t v = 0; v < cbrs.size(); ++v) {
    all_sent += cbrs[v]->sent();
    all_delivered += cbrs[v]->delivered();
    table.add_row(
        {bed.vehicle_ids()[v].to_string(), std::to_string(cbrs[v]->sent()),
         std::to_string(cbrs[v]->delivered()),
         TextTable::pct(static_cast<double>(cbrs[v]->delivered()) /
                        std::max<std::int64_t>(1, cbrs[v]->sent()))});
  }
  table.add_row({"fleet", std::to_string(all_sent),
                 std::to_string(all_delivered),
                 TextTable::pct(static_cast<double>(all_delivered) /
                                std::max<std::int64_t>(1, all_sent))});
  table.print(std::cout);

  const mac::MediumStats ms = trip.medium_stats();
  std::cout << "\nJain(delivery) over the fleet: "
            << TextTable::num(ms.jain_frames_received(bed.vehicle_ids()), 3)
            << "\n";

  std::filesystem::remove_all(dir);
  return 0;
}
