#pragma once

/// \file policy.h
/// Hard-handoff policy interface for trace replay (§3.1). All of §3.1's
/// policies re-decide once per second: a policy reads a whole trip and
/// returns the single BS the client is associated with during each of its
/// seconds; replay_hard_handoff (replay.h) maps each probe slot onto its
/// second. Per §3.1 the study deliberately ignores switching and scanning
/// delays to expose the *inherent* limits of hard handoff.
///
/// Information discipline: practical policies (RSSI, BRR, Sticky, History)
/// must only use beacon observations from strictly earlier seconds, plus —
/// for History — the previous day's logs. Oracle policies (BestBS) read
/// future probe outcomes by design.

#include <vector>

#include "trace/observations.h"
#include "trace/slot_masks.h"

namespace vifi::handoff {

using sim::NodeId;
using trace::MeasurementTrace;
using trace::SlotMasks;

class HandoffPolicy {
 public:
  virtual ~HandoffPolicy() = default;

  /// choices[s] = the BS associated during second s of \p trip (an invalid
  /// NodeId if none), with at least trip.seconds() entries. \p heard is
  /// the trip's slot membership, built once per replay and shared with it.
  virtual std::vector<NodeId> choose(const MeasurementTrace& trip,
                                     const SlotMasks& heard) = 0;
};

}  // namespace vifi::handoff
