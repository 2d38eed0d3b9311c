// §6 deployment study: how much of ViFi's gain survives when a city mesh
// is engineered in a cellular channel pattern, and how much the paper's
// proposed auxiliary radios recover.
//
//   same-channel       — every BS on one channel (the paper's testbeds)
//   cellular, no aux   — 3-channel reuse, no cross-channel overhearing
//   cellular + aux     — 3-channel reuse, aux radios overhear + relay (§6)
//
// Expected shape: the cellular pattern strips away auxiliary diversity and
// ViFi degrades toward BRR; auxiliary radios restore most of the gain.

#include <iostream>

#include "apps/cbr.h"
#include "figures.h"
#include "scenario/channel_plan.h"

using namespace vifi;

namespace {

/// One CBR trip under a channel plan.
analysis::SlotStream run_trip(const scenario::Testbed& bed, bool channelized,
                  bool aux_radios, std::uint64_t seed) {
  Rng root(seed);
  auto base = bed.make_channel(root.fork("channel"));

  core::SystemConfig cfg = runtime::live_policy_config("ViFi");
  cfg.vifi.max_retx = 0;
  cfg.seed = root.fork("system").next_u64();

  sim::Simulator sim;
  std::unique_ptr<core::VifiSystem> system;
  scenario::ChannelPlan plan =
      scenario::ChannelPlan::cellular(bed.bs_ids(), channelized ? 3 : 1);
  scenario::ChannelizedLoss loss(
      *base, plan, bed.vehicle_ids(), aux_radios, [&](sim::NodeId vehicle) {
        const sim::NodeId anchor =
            system ? system->vehicle(vehicle).anchor() : sim::NodeId{};
        return anchor.valid() ? plan.channel_of(anchor) : -1;
      });
  system = std::make_unique<core::VifiSystem>(
      sim, loss, bed.bs_ids(), bed.vehicle_ids(), bed.wired_host(), cfg);
  apps::VifiTransport transport(*system, bed.vehicle());
  system->start();
  sim.run_until(Time::seconds(3.0));
  apps::CbrWorkload cbr(sim, transport);
  const Time end = sim.now() + bed.trip_duration();
  cbr.start(end);
  sim.run_until(end + Time::seconds(1.0));

  return cbr.slot_stream();
}

}  // namespace

void vifi::bench::ablation_channelplan() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const int trips = 3 * scale();

  struct Plan {
    const char* label;
    bool channelized;
    bool aux_radios;
  };
  const std::vector<Plan> plans{
      {"same-channel (paper testbeds)", false, false},
      {"cellular pattern, no aux radio", true, false},
      {"cellular pattern + aux radios (Sec. 6)", true, true}};
  const auto runs = map_grid(
      plans.size(), static_cast<std::size_t>(trips),
      [&](std::size_t p, std::size_t trip) {
        return run_trip(bed, plans[p].channelized, plans[p].aux_radios,
                        17000 + trip);
      });

  TextTable table("§6 — deployment channel plans (ViFi link workload)");
  table.set_header(
      {"deployment", "delivery rate", "median session (s)"});
  for (std::size_t p = 0; p < plans.size(); ++p) {
    double delivered = 0.0, sent = 0.0;
    std::vector<double> sessions;
    for (const analysis::SlotStream& run : runs[p]) {
      for (const int d : run.delivered) delivered += d;
      sent += run.per_slot_max * static_cast<double>(run.delivered.size());
      const auto lengths =
          analysis::session_lengths_s(run, analysis::SessionDef{});
      sessions.insert(sessions.end(), lengths.begin(), lengths.end());
    }
    table.add_row({plans[p].label,
                   TextTable::pct(sent > 0 ? delivered / sent : 0.0),
                   TextTable::num(analysis::median_session_length(sessions),
                                  1)});
  }
  table.print(std::cout);

  std::cout << "\nPaper shape check: channelisation hurts ViFi (fewer "
               "same-channel auxiliaries); §6's auxiliary radios recover "
               "most of the lost diversity.\n";
}
