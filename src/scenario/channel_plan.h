#pragma once

/// \file channel_plan.h
/// §6 deployment study: city-wide meshes are often engineered in a
/// cellular pattern with neighbouring BSes on different WiFi channels — a
/// pattern that destroys the same-channel diversity ViFi feeds on. The
/// paper's proposed fix: give each BS an auxiliary radio tuned so that a
/// BS's neighbours can still overhear the BS-client channel, transmitting
/// on it only to relay.
///
/// `ChannelizedLoss` wraps any base loss model with channel gating:
///
///   * every BS serves clients on its own primary channel;
///   * each vehicle's data channel follows its own current anchor;
///   * with aux radios, BSes *hear* all channels but still transmit to a
///     vehicle on that vehicle's channel (relaying, per §6);
///   * without aux radios, cross-channel BSes are deaf to each other and
///     to vehicles tuned elsewhere;
///   * beacons are assumed visible across channels (clients scan; the
///     paper treats scanning as a solved problem, §3.1).
///
/// Because the wrapper cannot see frame types, beacon visibility is
/// modelled by keeping *BS-to-vehicle* reception open in both
/// configurations; the gating bites on what matters for diversity — which
/// BSes can overhear a vehicle's transmissions and each other.

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "channel/loss_model.h"

namespace vifi::scenario {

/// Static channel assignment per BS.
class ChannelPlan {
 public:
  void assign(sim::NodeId bs, int channel) { channels_[bs] = channel; }
  int channel_of(sim::NodeId bs) const {
    const auto it = channels_.find(bs);
    return it == channels_.end() ? 0 : it->second;
  }

  /// Round-robin assignment over `n_channels` in id order (the cellular
  /// pattern §6 describes).
  static ChannelPlan cellular(const std::vector<sim::NodeId>& bs_ids,
                              int n_channels) {
    ChannelPlan plan;
    int next = 0;
    for (sim::NodeId bs : bs_ids) {
      plan.assign(bs, next);
      next = (next + 1) % n_channels;
    }
    return plan;
  }

 private:
  std::map<sim::NodeId, int> channels_;
};

class ChannelizedLoss final : public channel::LossModel {
 public:
  /// Reports the channel a given vehicle is currently serving on (its
  /// anchor's primary channel); called only for registered vehicles.
  using ServingChannelFn = std::function<int(sim::NodeId vehicle)>;

  /// Every id in \p vehicles (the whole fleet; a single vehicle is a
  /// one-element fleet) is gated by its *own* serving channel.
  ChannelizedLoss(channel::LossModel& base, ChannelPlan plan,
                  std::vector<sim::NodeId> vehicles, bool aux_radios,
                  ServingChannelFn serving_channel)
      : base_(base),
        plan_(std::move(plan)),
        vehicles_(vehicles.begin(), vehicles.end()),
        aux_radios_(aux_radios),
        serving_channel_(std::move(serving_channel)) {}

  bool sample_delivery(sim::NodeId tx, sim::NodeId rx, Time now) override {
    const bool audible = can_hear(tx, rx);
    // Always advance the base model so stochastic state stays in sync.
    const bool delivered = base_.sample_delivery(tx, rx, now);
    return audible && delivered;
  }

  double reception_prob(sim::NodeId tx, sim::NodeId rx,
                        Time now) const override {
    return can_hear(tx, rx) ? base_.reception_prob(tx, rx, now) : 0.0;
  }

  /// One base evaluation per frame; a gated link still advances the base
  /// draw, exactly as sample_delivery does, and has probability 0.
  channel::Reception sample(sim::NodeId tx, sim::NodeId rx, Time now,
                            double audible_at) override {
    const bool audible = can_hear(tx, rx);
    const channel::Reception r = base_.sample(tx, rx, now, audible_at);
    return audible ? r : channel::Reception{0.0 >= audible_at, false};
  }

 private:
  bool is_vehicle(sim::NodeId id) const { return vehicles_.contains(id); }

  bool can_hear(sim::NodeId tx, sim::NodeId rx) const {
    if (is_vehicle(tx)) {
      if (is_vehicle(rx)) {
        // Vehicle-to-vehicle overhearing requires a shared serving channel
        // (or aux listen-everywhere radios).
        return aux_radios_ || serving_channel_(tx) == serving_channel_(rx);
      }
      // A vehicle transmits on its serving channel; a BS hears it if tuned
      // there or if it carries an aux (listen-everywhere) radio.
      return aux_radios_ || plan_.channel_of(rx) == serving_channel_(tx);
    }
    if (is_vehicle(rx)) {
      // BSes address a vehicle on that vehicle's serving channel (anchor
      // natively, relays via the aux radio); beacon scanning keeps
      // discovery open.
      return true;
    }
    // BS-to-BS overhearing.
    return aux_radios_ ||
           plan_.channel_of(tx) == plan_.channel_of(rx);
  }

  channel::LossModel& base_;
  ChannelPlan plan_;
  std::set<sim::NodeId> vehicles_;
  bool aux_radios_;
  ServingChannelFn serving_channel_;
};

}  // namespace vifi::scenario
