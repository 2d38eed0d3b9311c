#pragma once

/// \file span.h
/// Span-style intervals derived from the TripScope event stream. Events
/// are instants; several protocol facts are *durations* — how long a
/// vehicle kept one anchor, how long the coordination tier held a client
/// in one phase, how long a (receiver, beaconer) pair stayed in contact.
/// SpanBuilder folds a seq-ordered event stream into those intervals one
/// event at a time, so the Chrome exporter (Perfetto renders tenure bars
/// instead of instant ticks) and `tripscope query --spans` (tenure
/// percentiles, handoff gaps) both derive spans during their single
/// streaming pass over a recording, never holding the events themselves.
///
/// Derivations (all pure functions of the event stream + horizon):
///   AnchorTenure  one span per (vehicle, anchor) designation stretch,
///                 opened by an AnchorChange to a valid peer, closed by
///                 the next AnchorChange (or the horizon while still
///                 designated). An anchor-lost change closes without
///                 opening.
///   CoordPhase    one span per (client, phase) occupancy stretch from
///                 CoordTransition events (c packs event<<8|from<<4|to).
///                 The leading pre-first-transition stretch is skipped
///                 (its start is not observable from the stream); open
///                 non-Idle phases close at the horizon.
///   Contact       one span per BeaconRx run between a (receiver, tx)
///                 pair; a gap larger than SpanBuilder::kContactGap
///                 splits runs. Contacts close at the last beacon heard,
///                 not the horizon; a single beacon yields a zero-length
///                 span.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "coord/state.h"
#include "obs/event.h"
#include "sim/ids.h"
#include "util/time.h"

namespace vifi::obs {

enum class SpanKind : int {
  AnchorTenure,
  CoordPhase,
  Contact,
};

const char* to_string(SpanKind kind);

/// One derived interval on a node's track.
struct Span {
  SpanKind kind = SpanKind::AnchorTenure;
  sim::NodeId node;  ///< Track owner (vehicle / coord client / receiver).
  sim::NodeId peer;  ///< Anchor / anchor-at-open / beacon transmitter.
  Time begin;
  Time end;
  /// Kind-specific detail: the coord phase name for CoordPhase, empty
  /// otherwise.
  std::string detail;

  Time duration() const { return end - begin; }
};

/// Display name for a span: "anchor_tenure", "phase:<name>", "contact".
std::string span_label(const Span& span);

/// Incremental span derivation. add() takes the events in seq order
/// (TraceRecorder::visit / SpoolReader::visit order); finish() closes the
/// open intervals at \p horizon and returns every span, canonically
/// sorted by (begin, end, node, peer, kind, detail) — deterministic for a
/// deterministic stream. Only open intervals and finished spans are held.
class SpanBuilder {
 public:
  /// BeaconRx gap above which a contact run is split in two.
  static constexpr Time kContactGap = Time::seconds(3.0);

  void add(const TraceEvent& e);
  /// Call once, after the last add().
  std::vector<Span> finish(Time horizon);

 private:
  struct OpenTenure {
    sim::NodeId anchor;
    Time begin;
  };
  struct OpenPhase {
    coord::ClientPhase phase = coord::ClientPhase::Idle;
    sim::NodeId anchor;
    Time begin;
  };
  struct OpenContact {
    Time begin;
    Time last;
  };

  std::vector<Span> out_;
  // Ordered maps for deterministic horizon-close order (the final sort
  // ties on every Span field, so this is belt-and-braces, not required).
  std::map<sim::NodeId, OpenTenure> tenures_;
  std::map<sim::NodeId, OpenPhase> phases_;
  std::map<std::pair<sim::NodeId, sim::NodeId>, OpenContact> contacts_;
};

/// SpanBuilder over a whole event vector (seq-ascending).
std::vector<Span> build_spans(const std::vector<TraceEvent>& events,
                              Time horizon);

}  // namespace vifi::obs
