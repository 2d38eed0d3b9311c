#pragma once

/// \file live.h
/// Assembles a live protocol run for one trip: testbed geometry + channel
/// (stochastic VanLAN-style, or a §5.1 trace-driven loss schedule) + the
/// full ViFi/BRR stack + a fresh simulator. Experiments attach application
/// workloads through the transport and run the clock.
///
/// Every trip carries the testbed's whole fleet (a single vehicle is a
/// one-element fleet): one ViFi client per vehicle on the shared
/// medium/backplane, and one transport per vehicle so workloads attach per
/// vehicle.

#include <memory>
#include <vector>

#include "apps/transport.h"
#include "channel/loss_model.h"
#include "coord/manager.h"
#include "core/system.h"
#include "scenario/testbed.h"
#include "sim/simulator.h"
#include "trace/loss_schedule.h"
#include "trace/observations.h"

namespace vifi::scenario {

/// One self-contained protocol trip (own simulator, channel and stack).
class LiveTrip {
 public:
  /// Stochastic-channel trip (the deployment methodology). The whole fleet
  /// of \p bed rides: V vehicles, V transports.
  LiveTrip(const Testbed& bed, core::SystemConfig config,
           std::uint64_t trip_seed);

  /// Trace-driven trip (the DieselNet methodology): the §5.1 loss schedule
  /// built from the beacon logs replaces the stochastic channel. One trace
  /// per vehicle of the same trip, each naming its logging vehicle, as
  /// generate_campaign produces (and a catalog stream's `load_group`
  /// returns); a single-vehicle testbed passes `{&trace}`.
  LiveTrip(const Testbed& bed,
           const std::vector<const trace::MeasurementTrace*>& trips,
           core::SystemConfig config, std::uint64_t trip_seed,
           bool use_bs_beacon_logs = false);

  sim::Simulator& simulator() { return sim_; }
  core::VifiSystem& system() { return *system_; }
  /// The first (or only) vehicle's transport.
  apps::VifiTransport& transport() { return *transports_.front(); }
  /// A specific vehicle's transport.
  apps::VifiTransport& transport(sim::NodeId vehicle);
  /// One transport per vehicle, in fleet order.
  const std::vector<std::unique_ptr<apps::VifiTransport>>& transports() const {
    return transports_;
  }
  channel::LossModel& loss_model() { return *channel_; }

  /// The CoordTier manager riding this trip, or nullptr when the trip's
  /// SystemConfig left coordination off (the historical PAB-only stack).
  coord::ConnectivityManager* coord() { return coord_.get(); }

  /// Snapshot of the trip's medium accounting (per-node airtime ledger,
  /// role-tagged by VifiSystem) — the raw material for fairness metrics.
  mac::MediumStats medium_stats() const { return system_->medium().snapshot(); }

  /// Starts the protocol stack and advances the clock to \p until.
  void run_until(Time until);

  /// Protocol warm-up the benches use before attaching workloads (beacons
  /// must populate anchor choice and pab gossip).
  static Time warmup() { return Time::seconds(3.0); }

 private:
  void build_stack(const Testbed& bed, core::SystemConfig config,
                   std::uint64_t system_seed);

  sim::Simulator sim_;
  std::unique_ptr<channel::LossModel> channel_;
  std::unique_ptr<core::VifiSystem> system_;
  std::unique_ptr<coord::ConnectivityManager> coord_;
  std::vector<std::unique_ptr<apps::VifiTransport>> transports_;
  bool started_ = false;
};

}  // namespace vifi::scenario
