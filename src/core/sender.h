#pragma once

/// \file sender.h
/// The source-side data path shared by the vehicle (upstream) and the
/// anchor BS (downstream): a FIFO of application packets, per-packet
/// unique-id retransmission state, and the adaptive retransmission timer
/// of §4.7 — the 99th percentile of observed acknowledgment delays, so
/// sources "err towards waiting longer when conditions change rather than
/// retransmitting spuriously". When the medium frees up before the head
/// packet's retransmission time, the earliest *ready* packet is sent
/// instead (allowed reordering, §4.7).
///
/// The queue is one vector in arrival order, so the per-packet path
/// allocates nothing once it has reached its working length: enqueue
/// appends, an ack or the last attempt erases in place, and an ack lookup
/// scans the queued ids, which is faster than hashing at the queue
/// lengths a sender sees. The delay window is a ring of at most 512
/// samples, and retx_interval() takes its 99th percentile by selection in
/// a reused buffer (percentile_in_place) instead of sorting a copy.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/stats.h"
#include "mac/radio.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/ring_queue.h"

namespace vifi::obs {
class Histogram;
}

namespace vifi::core {

class VifiSender {
 public:
  VifiSender(sim::Simulator& sim, mac::Radio& radio, const VifiConfig& config,
             NodeId self, Direction dir);

  VifiSender(const VifiSender&) = delete;
  VifiSender& operator=(const VifiSender&) = delete;

  /// Wireless-hop destination at transmit time (anchor for the vehicle,
  /// vehicle for the anchor). An invalid id pauses sending.
  void set_hop_dst_provider(std::function<NodeId()> provider);
  /// Fills a data frame's piggyback list (empty on entry) with recently
  /// received reverse-direction packet ids (§4.8).
  void set_piggyback_provider(
      std::function<void(std::vector<std::uint64_t>&)> provider);
  /// Auxiliary-set size at transmit time (recorded in stats).
  void set_designated_aux_provider(std::function<int()> provider);
  void set_stats(VifiStats* stats) { stats_ = stats; }
  /// Called when a packet exhausts its attempts without an ACK.
  void set_drop_handler(std::function<void(const net::PacketRef&)> handler);

  /// Queues an application packet for (re)transmission until acked or out
  /// of attempts.
  void enqueue(net::PacketRef packet);

  /// Acknowledgment (explicit ACK frame or piggybacked id).
  /// \p explicit_ack contributes a delay sample to the retx estimator.
  void acknowledge(std::uint64_t packet_id, Time now, bool explicit_ack);

  /// Current retransmission interval (99th pct of ack delays, clamped).
  Time retx_interval() const;

  std::size_t pending() const { return entries_.size(); }
  std::uint64_t acked_count() const { return acked_; }
  std::uint64_t dropped_count() const { return dropped_; }

  /// Hook this to the radio's idle callback (done by the owning agent).
  void pump();

 private:
  struct Entry {
    std::uint64_t id = 0;  ///< packet->id, kept inline for ack lookups.
    net::PacketRef packet;
    int attempts = 0;
    Time next_ready;       ///< Earliest time the next attempt may go out.
    Time last_tx;          ///< When the latest attempt was enqueued to air.
  };

  void transmit(std::size_t i);
  void arm_wake(Time at);

  sim::Simulator& sim_;
  mac::Radio& radio_;
  VifiConfig config_;
  NodeId self_;
  Direction dir_;
  std::function<NodeId()> hop_dst_;
  std::function<void(std::vector<std::uint64_t>&)> piggyback_;
  std::function<int()> designated_aux_;
  std::function<void(const net::PacketRef&)> on_drop_;
  VifiStats* stats_ = nullptr;

  /// The retransmission queue, in arrival order: entries are only ever
  /// pushed at the back, so the first ready entry is the earliest-queued
  /// ready one. A salvage round trip can queue one packet twice; an ack
  /// takes the earlier entry.
  std::vector<Entry> entries_;
  RingQueue<double> ack_delays_s_;  ///< Sliding window of samples.
  /// retx_interval()'s selection buffer, reused.
  mutable std::vector<double> delay_scratch_;
  sim::EventId wake_{};
  Time wake_at_ = Time::max();
  std::uint64_t acked_ = 0;
  std::uint64_t dropped_ = 0;
  /// Live §4.7 retransmission-interval histogram (seconds), registered at
  /// construction when a MetricsRegistry is installed on this thread.
  obs::Histogram* retx_interval_hist_ = nullptr;
};

}  // namespace vifi::core
