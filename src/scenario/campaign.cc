#include "scenario/campaign.h"

#include <algorithm>
#include <string>

#include "channel/distance_loss.h"
#include "util/contracts.h"

namespace vifi::scenario {

std::size_t campaign_trip_count(const CampaignConfig& config) {
  VIFI_EXPECTS(config.days > 0 && config.trips_per_day > 0);
  return static_cast<std::size_t>(config.days) *
         static_cast<std::size_t>(config.trips_per_day);
}

/// For a single-vehicle testbed the channel draw order — and therefore the
/// generated trace — is identical to the original single-vehicle
/// generator.
std::vector<trace::MeasurementTrace> generate_campaign_trip(
    const Testbed& bed, const CampaignConfig& config, int day, int trip) {
  const Rng rng = Rng(config.seed).fork("day" + std::to_string(day) +
                                        "/trip" + std::to_string(trip));
  const std::vector<NodeId>& vehicles = bed.vehicle_ids();
  std::vector<trace::MeasurementTrace> logs(vehicles.size());
  const Time duration = config.trip_duration.is_zero() ? bed.trip_duration()
                                                       : config.trip_duration;
  for (std::size_t v = 0; v < vehicles.size(); ++v) {
    trace::MeasurementTrace& t = logs[v];
    t.testbed = bed.layout().name;
    t.day = day;
    t.trip = trip;
    t.vehicle = vehicles[v];
    t.duration = duration;
    t.beacons_per_second = config.beacons_per_second;
    t.bs_ids = bed.bs_ids();
  }

  auto channel = bed.make_channel(rng.fork("channel"));
  Rng rssi_rng = rng.fork("rssi");
  const std::vector<NodeId>& bs_ids = bed.bs_ids();
  std::vector<mobility::Vec2> bs_pos;
  bs_pos.reserve(bs_ids.size());
  for (NodeId bs : bs_ids) bs_pos.push_back(bed.bs_position(bs));

  const Time slot_len = Time::millis(100);
  const auto n_slots =
      static_cast<std::int64_t>(duration.to_micros() / slot_len.to_micros());
  const int beacons_per_slot = std::max(1, config.beacons_per_second / 10);
  if (config.log_probes)
    for (auto& t : logs) t.slots.reserve(static_cast<std::size_t>(n_slots));

  // A vehicle and a BS beyond the channel's cutoff are skipped without a
  // sample call: sample() would settle both directions with no draw and no
  // fade state, so the draws that remain, and their order, are unchanged.
  std::vector<mobility::Vec2> slot_fix(vehicles.size());
  std::vector<NodeId> down, up;  // One slot's heard BSes.
  for (std::int64_t i = 0; i < n_slots; ++i) {
    const Time now = slot_len * static_cast<double>(i);
    // Each vehicle's slot-start GPS fix, read once through the channel's
    // cache, which the probe draws at `now` then hit.
    for (std::size_t v = 0; v < vehicles.size(); ++v)
      slot_fix[v] = channel->position(vehicles[v], now);

    if (config.log_probes) {
      for (std::size_t v = 0; v < vehicles.size(); ++v) {
        const NodeId veh = vehicles[v];
        down.clear();
        up.clear();
        for (std::size_t k = 0; k < bs_ids.size(); ++k) {
          if (channel->out_of_range(slot_fix[v], bs_pos[k])) continue;
          const NodeId bs = bs_ids[k];
          if (channel->sample_delivery(bs, veh, now)) down.push_back(bs);
          if (channel->sample_delivery(veh, bs, now)) up.push_back(bs);
        }
        logs[v].add_slot(now, slot_fix[v], down, up);
      }
    }

    // Beacons within this slot (10/s => 1 per 100 ms slot).
    for (int b = 0; b < beacons_per_slot; ++b) {
      const Time bt = now + Time::millis(37);  // fixed offset inside slot
      for (std::size_t v = 0; v < vehicles.size(); ++v) {
        const NodeId veh = vehicles[v];
        const mobility::Vec2 at_bt = channel->position(veh, bt);
        for (std::size_t k = 0; k < bs_ids.size(); ++k) {
          if (channel->out_of_range(at_bt, bs_pos[k])) continue;
          if (!channel->sample_delivery(bs_ids[k], veh, bt)) continue;
          // RSSI from the slot-start GPS fix, as the original generator
          // recorded it — keeps campaign bytes identical across refactors.
          const double d = mobility::distance(bs_pos[k], slot_fix[v]);
          logs[v].vehicle_beacons.push_back(
              {bt, bs_ids[k], channel::synthesize_rssi_dbm(d, rssi_rng)});
        }
      }
      if (config.log_bs_beacons) {
        for (NodeId tx : bs_ids)
          for (NodeId rx : bs_ids) {
            if (tx == rx) continue;
            if (channel->sample_delivery(tx, rx, bt)) {
              // BS-side logs are shared infrastructure; mirror them into
              // every vehicle's trace so any one trace can drive the §5.1
              // validation schedule.
              for (auto& t : logs) t.bs_beacons.push_back({bt, tx, rx});
            }
          }
      }
    }
  }
  return logs;
}

trace::Campaign generate_campaign(const Testbed& bed,
                                  const CampaignConfig& config) {
  trace::Campaign campaign;
  campaign.testbed = bed.layout().name;
  campaign.trips.reserve(campaign_trip_count(config) *
                         bed.vehicle_ids().size());
  for (int day = 0; day < config.days; ++day) {
    for (int trip = 0; trip < config.trips_per_day; ++trip) {
      for (auto& t : generate_campaign_trip(bed, config, day, trip))
        campaign.trips.push_back(std::move(t));
    }
  }
  return campaign;
}

trace::MeasurementTrace filter_to_bs_subset(
    const trace::MeasurementTrace& t, const std::vector<NodeId>& subset) {
  auto keep = [&subset](NodeId id) {
    return std::find(subset.begin(), subset.end(), id) != subset.end();
  };
  trace::MeasurementTrace out = t;
  out.bs_ids.clear();
  for (NodeId id : t.bs_ids)
    if (keep(id)) out.bs_ids.push_back(id);
  // The kept slots' masks are taken over the kept BSes' positions.
  out.slots = {};
  out.add_slots(t.slots, keep);
  std::erase_if(out.vehicle_beacons,
                [&](const trace::BeaconObs& b) { return !keep(b.bs); });
  std::erase_if(out.bs_beacons, [&](const trace::BsBeaconObs& b) {
    return !keep(b.tx) || !keep(b.rx);
  });
  return out;
}

}  // namespace vifi::scenario
