#pragma once

/// \file frame.h
/// Link-layer frames on the vehicle–BS channel. All ViFi transmissions are
/// MAC broadcasts (§4.8: broadcast disables NIC auto-retransmission and
/// exponential backoff); the intended destination travels in the ViFi
/// header. In the simulator a frame carries typed payload structs instead of
/// serialised TLVs; `bytes_on_air()` accounts for their wire size.

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/ids.h"

namespace vifi::mac {

using sim::NodeId;

enum class FrameType { Beacon, Data, Ack };

inline const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::Beacon:
      return "beacon";
    case FrameType::Data:
      return "data";
    case FrameType::Ack:
      return "ack";
  }
  return "?";
}

/// One entry of the reception-probability gossip (§4.6): "node `from` is
/// received by node `to` with probability `prob`".
struct ProbReport {
  NodeId from;
  NodeId to;
  double prob = 0.0;
};

/// Beacon contents. BS beacons carry identity and gossip; vehicle beacons
/// additionally designate the anchor, the previous anchor (for salvaging)
/// and the auxiliary set (§4.3).
struct BeaconPayload {
  bool from_vehicle = false;        ///< Distinguishes client beacons.
  NodeId anchor;                    ///< Vehicle beacons only.
  NodeId prev_anchor;               ///< Vehicle beacons only.
  std::vector<NodeId> auxiliaries;  ///< Vehicle beacons only.
  std::vector<ProbReport> prob_reports;

  /// Wire size: fixed header + 4 B per id + 6 B per report.
  int wire_bytes() const {
    return 16 + 4 * static_cast<int>(auxiliaries.size()) +
           6 * static_cast<int>(prob_reports.size());
  }
};

/// ViFi data header riding on every data frame.
struct DataHeader {
  std::uint64_t packet_id = 0;  ///< ViFi's unique per-packet id (§4.7).
  int attempt = 1;    ///< Source transmission attempt (1 = first).
  NodeId origin;      ///< Original wireless-hop source (vehicle or anchor).
  NodeId hop_dst;     ///< Intended wireless-hop destination.
  bool is_relay = false;  ///< True when transmitted by an auxiliary (§4.3).
  NodeId relayer;         ///< Valid when is_relay.
  /// Piggybacked reverse-path acknowledgment: ids of the last few packets
  /// received from the peer (the 1-byte bitmap optimisation of §4.8,
  /// modelled as explicit ids, capacity 8).
  std::vector<std::uint64_t> piggyback_acked;
};

/// Acknowledgment payload: ViFi broadcasts an ACK naming the packet id.
struct AckPayload {
  std::uint64_t packet_id = 0;
};

/// A link-layer frame. `tx` is the node actually emitting energy; beacons
/// and ViFi data/acks are all broadcast on air.
struct Frame {
  FrameType type = FrameType::Data;
  NodeId tx;
  BeaconPayload beacon;
  DataHeader data;
  AckPayload ack;
  net::PacketRef packet;  ///< App payload for data frames.

  /// Total bytes serialised on the air (MAC body; PHY overhead is added by
  /// the medium).
  int bytes_on_air() const;
};

/// Receives successfully decoded frames from the medium.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void on_frame(const Frame& frame) = 0;
};

}  // namespace vifi::mac
