#pragma once

/// \file radio.h
/// A node's radio: CSMA deferral (carrier sense, random slot backoff — but
/// *no* exponential backoff, matching ViFi's broadcast-mode implementation,
/// §4.8), a small FIFO of frames awaiting air, and receive dispatch. Each
/// deferral's wait is charged to the node's row in the medium's airtime
/// ledger, so fairness snapshots see who queues behind whom.

#include <cstdint>
#include <functional>

#include "mac/frame.h"
#include "mac/medium.h"
#include "sim/ids.h"
#include "sim/simulator.h"
#include "util/ring_queue.h"
#include "util/rng.h"

namespace vifi::mac {

class Radio final : public FrameSink {
 public:
  static constexpr Time kSlot = Time::micros(20);
  static constexpr int kMaxDeferSlots = 16;  ///< Deferral window after busy.

  Radio(sim::Simulator& sim, Medium& medium, NodeId self, Rng rng);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  NodeId self() const { return self_; }

  /// Queues a frame for transmission; sends as soon as the channel allows.
  void send(Frame frame);

  /// A default frame of \p type carrying the storage of a pruned one (see
  /// Medium::recycled_frame()): build frames for send() from this.
  Frame recycled_frame(FrameType type) { return medium_.recycled_frame(type); }

  bool transmitting() const { return transmitting_; }
  /// Idle == nothing queued and not transmitting.
  bool idle() const { return queue_.empty() && !transmitting_; }

  /// Delivered when this node decodes a frame (not its own).
  void set_receiver(std::function<void(const Frame&)> handler);
  /// Fired each time the radio drains its queue (used by ViFi's
  /// opportunistic early transmission, §4.7).
  void set_idle_callback(std::function<void()> handler);

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }

  // FrameSink — called by the medium.
  void on_frame(const Frame& frame) override;

 private:
  void try_send();

  sim::Simulator& sim_;
  Medium& medium_;
  NodeId self_;
  Rng rng_;
  RingQueue<Frame> queue_;
  bool transmitting_ = false;
  bool retry_scheduled_ = false;
  std::function<void(const Frame&)> receiver_;
  std::function<void()> on_idle_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace vifi::mac
