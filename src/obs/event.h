#pragma once

/// \file event.h
/// Typed protocol trace events — the vocabulary of TripScope. One compact
/// POD per observable protocol action: beacons, anchor/auxiliary changes,
/// the §4.4 relay-probability evaluations with their inputs, salvage
/// hand-offs, the frame lifecycle on the medium, and handoff-policy
/// association changes during §3.1 replays. Events are cheap enough to
/// record on the hot path (no allocation, no strings); node labels travel
/// in the spool's node index.

#include <cstdint>

#include "sim/ids.h"
#include "util/time.h"

namespace vifi::obs {

/// What happened. Grouped by subsystem; the exporter renders the names.
enum class EventKind : std::uint8_t {
  // Beacons and the designation state machine (§4.3).
  BeaconTx,      ///< node emitted a beacon (c: 1 = vehicle beacon).
  BeaconRx,      ///< node decoded peer's beacon.
  AnchorChange,  ///< vehicle node switched anchor to peer (invalid = lost);
                 ///< a = new anchor's beacon reception score, id = switch #.
  AuxSetChange,  ///< vehicle's auxiliary set size changed to c.
  // Coordinated relaying (§4.4) and salvage (§4.5).
  RelayEval,     ///< auxiliary node evaluated relay probability a for
                 ///< packet id toward peer; b = 1 if it chose to relay,
                 ///< c = size of the designated auxiliary set.
  RelayTx,       ///< auxiliary node relayed packet id toward peer
                 ///< (c: 0 = upstream via backplane, 1 = downstream on air).
  SalvageRequest,  ///< new anchor node asked peer (prev anchor) to salvage
                   ///< packets for vehicle c.
  SalvageHandoff,  ///< prev-anchor node handed packet id over to peer.
  SalvageDeliver,  ///< new-anchor node received salvaged packet id.
  // Frame lifecycle on the wireless medium.
  FrameEnqueue,  ///< node queued a frame at its radio (c: FrameType).
  FrameTx,       ///< node started transmitting (a: airtime seconds,
                 ///< b: attempt for data frames, c: FrameType).
  FrameDecode,   ///< node sampled a successful decode of peer's frame.
  FrameCollide,  ///< node lost peer's frame to a collision.
  FrameDeliver,  ///< node's sink received peer's frame (c: FrameType).
  FrameDrop,     ///< node dropped packet id after exhausting attempts.
  // End-to-end application view.
  AppDeliver,  ///< node delivered unique app packet id (c: 1 = downstream).
  // §3.1 trace replay.
  Handoff,  ///< replayed vehicle node associated with peer (invalid = none).
  // CoordTier: the BS-side ConnectivityManager (src/coord/).
  CoordTransition,  ///< client node's machine fired: peer = its anchor,
                    ///< id = per-client transition #, a = prediction
                    ///< confidence, c packs (event<<8 | from<<4 | to).
  CoordPrestage,    ///< predicted BS peer pre-staged for client node
                    ///< (a: prediction confidence).
  CoordSuppress,    ///< auxiliary peer's relay for client node suppressed
                    ///< under a confident prediction (a: confidence).
  // Retired: no event carries this kind (TraceRecorder::record rejects
  // it). It keeps its slot so the spool footer's per-kind count array,
  // and with it every spool byte, stays as it was.
  Log,
};

/// Total number of EventKind values (for per-kind counters).
inline constexpr int kEventKindCount = static_cast<int>(EventKind::Log) + 1;

const char* to_string(EventKind kind);

/// One recorded protocol event. 64 bytes, trivially copyable; the spool
/// encodes it into a 56-byte record (spool.h).
struct TraceEvent {
  Time at;                ///< Timeline time (recorder base + sim clock).
  std::uint64_t seq = 0;  ///< Recorder-wide order, for deterministic merge.
  std::uint64_t id = 0;   ///< Packet id / beacon count / kind-specific.
  sim::NodeId node;       ///< The node whose track this event belongs to.
  sim::NodeId peer;       ///< Counterpart node (tx of a decoded frame, new
                          ///< anchor, relay destination...), if any.
  EventKind kind = EventKind::BeaconTx;
  std::int32_t c = 0;  ///< Small integer argument (see EventKind docs).
  double a = 0.0;      ///< Kind-specific (probability, airtime seconds...).
  double b = 0.0;      ///< Second kind-specific value.
};

}  // namespace vifi::obs
