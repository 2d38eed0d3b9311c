#pragma once

/// \file campaign.h
/// The measurement study generator (§3.1): every node broadcasts a 500-byte
/// probe at 1 Mbps every 100 ms plus ~10 beacons/s; the vehicle (and, on
/// VanLAN, the BSes) log what they decode. Probe outcomes are sampled
/// directly through the channel model — §3.1 verified that
/// self-interference of this light workload is negligible, so skipping MAC
/// contention preserves the measured statistics while being ~20x faster.
/// Live protocol experiments (ViFi vs BRR) use the full MAC.

#include <cstddef>
#include <vector>

#include "scenario/testbed.h"
#include "trace/observations.h"
#include "util/rng.h"

namespace vifi::scenario {

struct CampaignConfig {
  int days = 3;
  int trips_per_day = 6;
  /// Trip length; zero means one full route lap.
  Time trip_duration = Time::zero();
  std::uint64_t seed = 1;
  /// Log 100 ms probe slots (§3.1 handoff study). DieselNet vehicles could
  /// not probe the BSes, so their campaigns log beacons only.
  bool log_probes = true;
  /// Log BS-to-BS beacons (possible only on VanLAN, §5.1 validation).
  bool log_bs_beacons = false;
  int beacons_per_second = 10;
};

/// The campaign's days x trips_per_day trip count. Throws
/// ContractViolation unless both are positive.
std::size_t campaign_trip_count(const CampaignConfig& config);

/// One trip of the campaign — trip \p trip of day \p day — drawn from that
/// trip's own stream of the campaign seed: one MeasurementTrace per
/// vehicle, all riding the trip's channel realisation (vehicles share the
/// campus at the same instant). A pure function of its arguments, so the
/// trips of one campaign may be generated in any order, on any thread.
std::vector<trace::MeasurementTrace> generate_campaign_trip(
    const Testbed& bed, const CampaignConfig& config, int day, int trip);

/// Runs the campaign: days x trips_per_day independent trips, each with a
/// fresh channel realisation (a trip starts with uncorrelated fading),
/// concatenated in (day, trip, vehicle) order.
trace::Campaign generate_campaign(const Testbed& bed,
                                  const CampaignConfig& config);

/// Restricts a trace to a subset of BSes (drops observations of the rest);
/// used for the BS-density sweep of Fig. 2.
trace::MeasurementTrace filter_to_bs_subset(
    const trace::MeasurementTrace& t, const std::vector<NodeId>& subset);

}  // namespace vifi::scenario
