#pragma once

/// \file receiver.h
/// The destination-side data path shared by the anchor BS (upstream) and
/// the vehicle (downstream), the counterpart of VifiSender: ViFi runs one
/// link protocol in both directions (§4.3). Each arriving copy, direct or
/// relayed, gets the Table 1 stats hook, then an ACK frame on the agent's
/// radio: always for a direct copy (covering lost-ACK retries), for a
/// relayed one only if no copy was acked yet (§4.3 step 4). A packet's
/// first copy alone then enters the piggyback window the agent's sender
/// carries on reverse-path data (§4.8), is traced as AppDeliver and is
/// released to the agent in arrival order, as in §4.7's prototype.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/id_set.h"
#include "core/stats.h"
#include "mac/radio.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/ring_queue.h"

namespace vifi::core {

class VifiReceiver {
 public:
  /// One arriving copy of a data packet.
  struct Arrival {
    net::PacketRef packet;
    int attempt = 0;
    bool relayed = false;
    NodeId peer{};  ///< The AppDeliver peer; the relayer when relayed.
  };

  /// \p dir, the direction of the packets received here, sets the
  /// AppDeliver record's `c` (1 = downstream).
  VifiReceiver(sim::Simulator& sim, mac::Radio& radio,
               const VifiConfig& config, Direction dir, VifiStats* stats)
      : sim_(sim), radio_(radio), config_(config), dir_(dir), stats_(stats) {}

  VifiReceiver(const VifiReceiver&) = delete;
  VifiReceiver& operator=(const VifiReceiver&) = delete;

  /// Where unique packets go up the stack; until set, none are released.
  void set_release_handler(std::function<void(const net::PacketRef&)> fn) {
    release_ = std::move(fn);
  }

  /// Runs one arriving copy through the steps above; true if it was the
  /// packet's first copy.
  bool accept(const Arrival& a);

  /// Sets \p out to the newest `piggyback_depth` unique ids, oldest first
  /// (§4.8), reusing its storage.
  void recent_ids(std::vector<std::uint64_t>& out) const {
    out.resize(window_.size());
    for (std::size_t i = 0; i < window_.size(); ++i) out[i] = window_[i];
  }

 private:
  sim::Simulator& sim_;
  mac::Radio& radio_;
  VifiConfig config_;
  Direction dir_;
  VifiStats* stats_;
  std::function<void(const net::PacketRef&)> release_;
  RecentIdSet received_;
  RecentIdSet acked_once_;
  RingQueue<std::uint64_t> window_;
};

}  // namespace vifi::core
