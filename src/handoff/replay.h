#pragma once

/// \file replay.h
/// Replays a measurement trace under a handoff policy and reports which of
/// the client's 100 ms-workload packets got through (§3.1: "the traces of
/// broadcast packets and the current association determine which packets
/// are successfully received"). Both replays map a probe slot onto its
/// trip second the same way: hard handoff to index the policy's
/// per-second choices, AllBSes to index its per-second BS sets.

#include <vector>

#include "handoff/policy.h"
#include "trace/observations.h"

namespace vifi::handoff {

/// Per-probe-slot outcome of the mirrored workload (one packet each way).
struct SlotOutcome {
  bool up = false;
  bool down = false;
  int delivered() const { return (up ? 1 : 0) + (down ? 1 : 0); }
};

/// Hard handoff: only the associated BS counts. Each probe slot is served
/// by \p policy's choice for the second it falls in; slots past the last
/// full second use the last choice. \p heard is SlotMasks(trip), which
/// the policy reads too. Throws ContractViolation if the policy returns
/// fewer than trip.seconds() choices.
std::vector<SlotOutcome> replay_hard_handoff(const MeasurementTrace& trip,
                                             const SlotMasks& heard,
                                             HandoffPolicy& policy);

/// AllBSes oracle diversity (§3.1.6): upstream succeeds if any BS heard the
/// packet; downstream succeeds if the vehicle heard any BS that slot.
/// \p heard is SlotMasks(trip). \p max_bs < 0 uses all BSes; otherwise
/// the union is restricted per second to the \p max_bs best BSes of that
/// second (the §3.4.1 "two BSes give most of the gain" experiment).
std::vector<SlotOutcome> replay_allbses(const MeasurementTrace& trip,
                                        const SlotMasks& heard,
                                        int max_bs = -1);

/// Total packets delivered across a trip (both directions).
std::int64_t packets_delivered(const std::vector<SlotOutcome>& outcomes);

}  // namespace vifi::handoff
