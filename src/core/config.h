#pragma once

/// \file config.h
/// ViFi protocol configuration. The baselines of the evaluation are
/// expressed as configurations of the same stack (§5.1: "To ensure a fair
/// comparison, we implement BRR within the same framework as ViFi but with
/// the auxiliary BS functionality switched off"):
///
///   * BRR baseline ........ diversity=false, salvage=false
///   * "Only Diversity" .... diversity=true,  salvage=false  (Fig. 9)
///   * ViFi ................ diversity=true,  salvage=true
///
/// `variant` selects the §5.5.1 coordination ablations. The rest is the
/// paper's design, not a switch: the vehicle designates every BS it hears
/// as an auxiliary (§4.3), and packets go up the stack in arrival order, as
/// in §4.7's prototype (the reordering it measures is small and does not
/// hurt TCP).

#include <array>
#include <vector>

#include "util/time.h"

namespace vifi::core {

/// Relay-probability formulations (§4.4 guidelines G1–G3 and their
/// violations studied in §5.5.1 / Table 2).
enum class RelayVariant {
  ViFi,  ///< Expected relays = 1, weighted by connectivity to destination.
  NoG1,  ///< Ignore other auxiliaries: relay w.p. own delivery ratio.
  NoG2,  ///< Ignore connectivity: relay w.p. 1 / sum(c_i).
  NoG3,  ///< Expected *deliveries* = 1 (waterfilling; §5.5.1).
};

inline const char* to_string(RelayVariant v) {
  switch (v) {
    case RelayVariant::ViFi:
      return "ViFi";
    case RelayVariant::NoG1:
      return "!G1";
    case RelayVariant::NoG2:
      return "!G2";
    case RelayVariant::NoG3:
      return "!G3";
  }
  return "?";
}

struct VifiConfig {
  bool diversity = true;  ///< Auxiliary overhearing + relaying enabled.
  bool salvage = true;    ///< §4.5 anchor-to-anchor packet salvaging.
  RelayVariant variant = RelayVariant::ViFi;

  /// Source retransmissions of unacknowledged packets. 0 disables (link-
  /// layer experiments, §5.2); application experiments use 3 (§5.3).
  int max_retx = 3;

  Time beacon_period = Time::millis(100);

  /// Auxiliary relay timers fire this often, with random per-BS phase
  /// (§4.4: "relay attempts of auxiliary BSes are not synchronized").
  Time relay_check_period = Time::millis(10);
  /// Minimum age of an overheard packet before a relay decision, giving
  /// the destination's ACK time to arrive.
  Time ack_wait = Time::millis(8);

  /// Retransmission timer: 99th percentile of observed ack delays (§4.7),
  /// clamped to [floor, cap]; `initial` is used before enough samples.
  Time retx_initial = Time::millis(60);
  Time retx_floor = Time::millis(15);
  Time retx_cap = Time::seconds(1.0);

  /// Relative BRR advantage a challenger BS needs before the vehicle
  /// re-anchors (prevents flapping between equals).
  double anchor_hysteresis = 0.15;
  /// A BS must have been heard within this window to serve as anchor or
  /// auxiliary.
  Time neighbor_staleness = Time::seconds(3.0);

  /// Anchor keeps unacknowledged Internet packets this long for the next
  /// anchor to salvage (§4.5: one second, from the minimum TCP RTO).
  Time salvage_window = Time::seconds(1.0);

  /// Size of the piggybacked recently-received id list (§4.8's 1-byte
  /// bitmap covers the last eight packets).
  int piggyback_depth = 8;
};

/// CoordTier: the BS-side ConnectivityManager's knobs (src/coord/). Plain
/// data here so the whole stack (executor -> LiveTrip -> VifiSystem) can
/// thread it through without depending on the coord layer.
struct CoordParams {
  /// Off by default: the historical PAB-only stack, byte-for-byte. On, the
  /// manager warms the predicted next anchor (sender state + proactive
  /// salvage pull) before the handoff beacon gap and suppresses
  /// non-{anchor, predicted} auxiliary relays while a confident prediction
  /// is live.
  bool enabled = false;
  /// Predictions below this successor-share never commit. Routes through
  /// ~10-BS testbeds spread successions wide, so the floor is set where a
  /// clear favourite (several times the uniform share) still qualifies;
  /// raising it towards 1 disables prediction on diffuse matrices.
  double min_confidence = 0.4;
  /// Successions observed from a BS before its predictions count.
  int min_history = 3;
  /// No client beacon for this long resets the machine to Idle.
  Time beacon_timeout = Time::seconds(3.0);
  /// Fitted mobility history seeding the next-BS predictor:
  /// {from_bs, to_bs, count} succession triples (coord::fit_history).
  std::vector<std::array<int, 3>> history;
};

}  // namespace vifi::core
