// Ablation (§5.5.1 / technical-report claim): application-level impact of
// the coordination formulation. The paper states that application
// performance under ¬G1/¬G2/¬G3 is worse than under ViFi; here we measure
// VoIP session lengths on VanLAN under each variant.

#include <iostream>

#include "figures.h"

void vifi::bench::ablation_variants() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 3 * scale();

  const std::vector<std::pair<std::string, core::RelayVariant>> variants{
      {"ViFi", core::RelayVariant::ViFi},
      {"!G1", core::RelayVariant::NoG1},
      {"!G2", core::RelayVariant::NoG2},
      {"!G3", core::RelayVariant::NoG3}};
  struct Call {
    apps::VoipResult voip;
    std::int64_t relays = 0;  ///< Relays sent by every BS.
  };
  const auto calls = map_grid(
      variants.size(), static_cast<std::size_t>(trips),
      [&](std::size_t variant, std::size_t trip) {
        core::SystemConfig cfg = runtime::live_policy_config("ViFi");
        cfg.vifi.variant = variants[variant].second;
        scenario::LiveTrip live(bed, cfg, 15000 + trip);
        Call call{voip_trip(live, bed.trip_duration())};
        for (sim::NodeId bs : live.system().bs_ids())
          call.relays += static_cast<std::int64_t>(
              live.system().basestation(bs).relays_sent());
        return call;
      });

  TextTable table(
      "Ablation — VoIP on VanLAN under coordination variants");
  table.set_header({"mechanism", "median session (s)", "interruptions/trip",
                    "mean MoS", "effective loss", "relays sent"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    VoipTally tally;
    std::int64_t relays = 0;
    for (const Call& call : calls[v]) {
      tally.add(call.voip);
      relays += call.relays;
    }
    table.add_row(
        {variants[v].first, TextTable::num(tally.median_session(), 1),
         TextTable::num(static_cast<double>(tally.interruptions) / trips, 1),
         TextTable::num(tally.mean_mos(), 2),
         TextTable::pct(tally.effective_loss(), 1), std::to_string(relays)});
  }
  table.print(std::cout);

  std::cout << "\nPaper shape check: ViFi at least matches every variant; "
               "!G3 wastes airtime on redundant relays, !G1 over-relays "
               "with many auxiliaries, !G2 under-uses well-placed ones.\n";
}
