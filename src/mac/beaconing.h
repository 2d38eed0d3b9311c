#pragma once

/// \file beaconing.h
/// Periodic beacons with jitter. Beacons are the substrate for three
/// different mechanisms in the paper: handoff-policy input (§3.1),
/// anchor/auxiliary designation (§4.3), and the reception-probability
/// gossip (§4.6).

#include <functional>

#include "mac/frame.h"
#include "mac/radio.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vifi::mac {

/// Emits a beacon every `period` (default 100 ms, ~10 beacons/s as assumed
/// by the per-second beacon-count estimators), with per-beacon jitter to
/// desynchronise nodes.
class Beaconing {
 public:
  /// Fills the beacon's payload in place; the payload arrives with its
  /// vectors empty but holding the capacity of an earlier frame's, so a
  /// provider that fills them allocates nothing in steady state.
  using PayloadProvider = std::function<void(BeaconPayload&)>;

  Beaconing(sim::Simulator& sim, Radio& radio, Rng rng,
            Time period = Time::millis(100),
            Time jitter = Time::millis(10));

  ~Beaconing();
  Beaconing(const Beaconing&) = delete;
  Beaconing& operator=(const Beaconing&) = delete;

  /// Sets the payload builder called at each beacon emission.
  void set_payload_provider(PayloadProvider provider);

  void start();
  void stop();
  bool running() const { return running_; }

  Time period() const { return period_; }
  std::uint64_t beacons_sent() const { return sent_; }

 private:
  void fire();
  void arm();

  sim::Simulator& sim_;
  Radio& radio_;
  Rng rng_;
  Time period_;
  Time jitter_;
  PayloadProvider provider_;
  sim::EventId pending_{};
  bool running_ = false;
  std::uint64_t sent_ = 0;
};

}  // namespace vifi::mac
