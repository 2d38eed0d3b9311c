// §5.5.2 stress test: conditions where ViFi's probabilistic coordination
// degrades — many auxiliaries, all equidistant from source and destination.
// The mean number of relays per lost packet stays ~1 (Eq. 1) but its
// variance grows, inflating both false positives and false negatives.

#include <iostream>

#include "apps/cbr.h"
#include "channel/vehicular.h"
#include "core/system.h"
#include "figures.h"

using namespace vifi;

namespace {

/// A ring of `n_aux + 1` BSes equidistant from a stationary "vehicle" at
/// the centre; the anchor is one of them. This realises the §5.5.2
/// symmetric worst case.
struct RingWorld {
  std::vector<mobility::Vec2> positions;  // BSes then vehicle
  mobility::Vec2 of(sim::NodeId id) const {
    return positions[static_cast<std::size_t>(id.value())];
  }
};

RingWorld make_ring(int n_bs, double radius) {
  RingWorld w;
  for (int i = 0; i < n_bs; ++i) {
    const double a = 2.0 * M_PI * i / n_bs;
    w.positions.push_back({radius * std::cos(a), radius * std::sin(a)});
  }
  w.positions.push_back({0.0, 0.0});  // vehicle at the centre
  return w;
}

/// Downstream coordination of one CBR run on an \p n_bs ring for
/// \p duration.
core::CoordinationSummary run_ring(int n_bs, Time duration) {
  const RingWorld world = make_ring(n_bs, 120.0);
  channel::VehicularChannelParams params;
  channel::VehicularChannel loss(
      params, [&world](sim::NodeId id, Time) { return world.of(id); },
      Rng(3000 + static_cast<std::uint64_t>(n_bs)));
  const sim::NodeId vehicle(n_bs);
  const sim::NodeId gateway(n_bs + 1);
  loss.mark_mobile(vehicle);

  std::vector<sim::NodeId> bs_ids;
  bs_ids.reserve(static_cast<std::size_t>(n_bs));
  for (int i = 0; i < n_bs; ++i) bs_ids.push_back(sim::NodeId(i));

  sim::Simulator sim;
  core::SystemConfig cfg = runtime::live_policy_config("ViFi");
  cfg.vifi.max_retx = 0;
  cfg.seed = 4000 + static_cast<std::uint64_t>(n_bs);
  core::VifiSystem system(sim, loss, bs_ids, {vehicle}, gateway, cfg);
  apps::VifiTransport transport(system, vehicle);
  system.start();
  sim.run_until(Time::seconds(3.0));
  apps::CbrWorkload cbr(sim, transport);
  const Time end = sim.now() + duration;
  cbr.start(end);
  sim.run_until(end + Time::seconds(1.0));
  return system.stats().coordination(net::Direction::Downstream);
}

}  // namespace

void vifi::bench::ablation_limits() {
  const Time duration = Time::seconds(60.0 * scale());
  const std::vector<int> ring_sizes{3, 6, 11, 16, 21};
  const std::vector<core::CoordinationSummary> rings =
      map_trips(ring_sizes.size(), [&](std::size_t i) {
        return run_ring(ring_sizes[i], duration);
      });

  TextTable table(
      "§5.5.2 — symmetric-auxiliary stress (stationary ring, downstream)");
  table.set_header({"#BSes", "false positives", "false negatives",
                    "relays/lost pkt"});
  for (std::size_t i = 0; i < ring_sizes.size(); ++i) {
    const core::CoordinationSummary& s = rings[i];
    const double failed =
        s.frac_src_tx_failed * static_cast<double>(s.attempts);
    // Average relays per failed (lost) source transmission, reconstructed
    // from the FP/FN components: relays for successful tx plus relays for
    // failed tx.
    const double fp_relays = s.false_positive_rate *
                             s.frac_src_tx_reached_dst *
                             static_cast<double>(s.attempts);
    const double failed_relayed = (1.0 - s.false_negative_rate) * failed;
    const double relays =
        failed > 0 ? (fp_relays + failed_relayed) / failed : 0.0;
    table.add_row({std::to_string(ring_sizes[i]),
                   TextTable::pct(s.false_positive_rate),
                   TextTable::pct(s.false_negative_rate),
                   TextTable::num(relays, 2)});
  }
  table.print(std::cout);

  std::cout << "\nPaper shape check: with many equidistant auxiliaries the "
               "variance of the relay count grows — false positives and/or "
               "false negatives inflate relative to the small-ring case.\n";
}
