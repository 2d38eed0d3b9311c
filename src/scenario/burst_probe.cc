#include "scenario/burst_probe.h"

#include "util/contracts.h"

namespace vifi::scenario {

BurstProbeRun burst_probe_single(const Testbed& bed, NodeId bs,
                                 Time trip_duration, Time period, Rng rng,
                                 double in_range_threshold, NodeId vehicle) {
  VIFI_EXPECTS(period > Time::zero());
  auto channel = bed.make_channel(rng.fork("channel"));
  const NodeId veh = vehicle.valid() ? vehicle : bed.vehicle();
  VIFI_EXPECTS(bed.is_vehicle(veh));
  BurstProbeRun run;
  run.bs = bs;
  run.vehicle = veh;
  const auto n = static_cast<std::int64_t>(trip_duration.to_micros() /
                                           period.to_micros());
  run.received.reserve(static_cast<std::size_t>(n));
  run.in_range.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const Time now = period * static_cast<double>(i);
    run.received.push_back(channel->sample_delivery(bs, veh, now));
    run.in_range.push_back(channel->geometric_reception_prob(bs, veh, now) >=
                           in_range_threshold);
  }
  return run;
}

PairProbeRun burst_probe_pair(const Testbed& bed, NodeId a, NodeId b,
                              Time trip_duration, Time period, Rng rng,
                              double in_range_threshold, NodeId vehicle) {
  VIFI_EXPECTS(period > Time::zero());
  PairProbeRun run;
  run.bs_a = a;
  run.bs_b = b;
  auto channel = bed.make_channel(rng.fork("channel"));
  const NodeId veh = vehicle.valid() ? vehicle : bed.vehicle();
  VIFI_EXPECTS(bed.is_vehicle(veh));
  run.vehicle = veh;
  const auto n = static_cast<std::int64_t>(trip_duration.to_micros() /
                                           period.to_micros());
  for (std::int64_t i = 0; i < n; ++i) {
    const Time now = period * static_cast<double>(i);
    // A transmits at the interval start, B half a period later (they share
    // the channel; the offset avoids collisions as in the paper's setup).
    run.a_received.push_back(channel->sample_delivery(a, veh, now));
    run.b_received.push_back(
        channel->sample_delivery(b, veh, now + period / 2.0));
    const bool in_a =
        channel->geometric_reception_prob(a, veh, now) >= in_range_threshold;
    const bool in_b =
        channel->geometric_reception_prob(b, veh, now) >= in_range_threshold;
    run.both_in_range.push_back(in_a && in_b);
  }
  return run;
}

}  // namespace vifi::scenario
