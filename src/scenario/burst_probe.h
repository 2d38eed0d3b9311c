#pragma once

/// \file burst_probe.h
/// The Fig. 6 micro-experiments: dense probing that exposes loss burstiness
/// and cross-BS (in)dependence.
///
///  (a) one BS sends a packet every 10 ms for a trip; a different sender is
///      picked per trip;
///  (b) a chosen pair of BSes each send a packet every 20 ms.

#include <vector>

#include "scenario/testbed.h"
#include "util/rng.h"

namespace vifi::scenario {

/// Outcome of dense single-BS probing over one trip, as observed by one
/// vehicle of the fleet.
struct BurstProbeRun {
  NodeId bs;
  NodeId vehicle;              ///< The observing vehicle.
  std::vector<bool> received;  ///< Per probe, in time order.
  std::vector<bool> in_range;  ///< Geometric reception prob >= threshold.
};

/// Fig. 6(a): probes every \p period from \p bs to a moving vehicle
/// (\p vehicle invalid = the testbed's first vehicle).
BurstProbeRun burst_probe_single(const Testbed& bed, NodeId bs,
                                 Time trip_duration, Time period, Rng rng,
                                 double in_range_threshold = 0.2,
                                 NodeId vehicle = NodeId{});

/// Fig. 6(b): interleaved probes from two BSes; probe i of A and probe i of
/// B belong to the same 20 ms interval.
struct PairProbeRun {
  NodeId bs_a;
  NodeId bs_b;
  NodeId vehicle;  ///< The observing vehicle.
  std::vector<bool> a_received;
  std::vector<bool> b_received;
  std::vector<bool> both_in_range;
};

PairProbeRun burst_probe_pair(const Testbed& bed, NodeId a, NodeId b,
                              Time trip_duration, Time period, Rng rng,
                              double in_range_threshold = 0.2,
                              NodeId vehicle = NodeId{});

}  // namespace vifi::scenario
