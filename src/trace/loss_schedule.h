#pragma once

/// \file loss_schedule.h
/// The paper's trace-driven simulation input (§5.1): converts each
/// vehicle's logged beacon receptions into a per-second symmetric loss
/// schedule.
///
///  * vehicle <-> BS: loss = 1 - beacons_heard / beacons_sent per second;
///  * BS <-> BS (DieselNet, where inter-BS behaviour is unknown): pairs
///    never simultaneously visible to the vehicle are unreachable; all
///    other pairs draw a Uniform(0,1) constant loss ratio;
///  * BS <-> BS (VanLAN validation, where BS-side logs exist): per-second
///    inter-BS beacon loss ratio.

#include <memory>
#include <vector>

#include "channel/trace_driven.h"
#include "trace/observations.h"
#include "util/rng.h"

namespace vifi::trace {

/// Builds the §5.1 loss schedule for one trip of a fleet: one trace per
/// vehicle (each trace's `vehicle` field identifies its logger; a
/// single-vehicle trip is a one-trace fleet). The vehicle<->BS schedules
/// of all traces merge into one model; inter-BS links are configured once,
/// from the first trace, since BS-side behaviour is shared infrastructure.
/// \p use_bs_beacon_logs takes them from logged BS-to-BS beacons (VanLAN
/// validation) instead of the DieselNet co-visibility + Uniform(0,1) rule.
std::unique_ptr<channel::TraceLossModel> build_fleet_loss_schedule(
    const std::vector<const MeasurementTrace*>& trips,
    bool use_bs_beacon_logs, Rng rng);

/// True if the two BSes are ever heard by the vehicle within the same
/// one-second interval of the trip.
bool ever_covisible(const MeasurementTrace& trip, NodeId a, NodeId b);

}  // namespace vifi::trace
