#pragma once

/// \file sink.h
/// TripScope's two trace backends. A TraceRecorder holds exactly one of
/// them (recorder.h), by value, and hands it every event after stamping
/// it (timeline time, global seq):
///
///   RingSink    per-node fixed-capacity rings, overwrite-oldest — the
///               default. Zero I/O, bounded memory, keeps the newest
///               window per node; `dropped()` counts what wrapping
///               overwrote.
///   StreamSink  full fidelity to disk — spools every event into a
///               chunked per-node binary file (spool.h), flushing in
///               fixed-size blocks off the hot path. Never drops;
///               city-scale timelines survive past the ring horizon.
///
/// The set is closed: two plain classes with the same push / nodes /
/// visit / absorb shape and no common base. Both replay their retained
/// events in seq order through `visit`, the read path of the exporters.
/// `absorb` folds another sink *of the same kind* in so the sharded
/// executor can stitch per-trip sinks into one session sink with the same
/// bytes a sequential recording would produce (the determinism contract
/// recorder.h states): a ring replays the other's window, a stream copies
/// the other's encoded records. A stream's visit is SpoolReader's merge:
/// it never holds the whole spool in memory.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/spool.h"
#include "sim/ids.h"
#include "util/time.h"

namespace vifi::obs {

/// Fixed-capacity event ring. Overwrites the oldest entry once full;
/// `dropped()` counts overwritten events so exporters can say so.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity);

  void push(const TraceEvent& e);

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Folds another ring's drop count in (RingSink::absorb: the absorbed
  /// ring's own overwrites must still be accounted for).
  void add_dropped(std::uint64_t n) { dropped_ += n; }

  /// Events oldest-to-newest (unwraps the ring).
  std::vector<TraceEvent> snapshot() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< Next write position once the ring is full.
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

/// The default in-memory backend: one EventRing per node.
class RingSink {
 public:
  explicit RingSink(std::size_t per_node_capacity);

  void push(const TraceEvent& e);
  /// Events lost to ring overwrites, summed over nodes.
  std::uint64_t dropped() const;
  /// Nodes with at least one retained event, ascending id.
  std::vector<sim::NodeId> nodes() const;
  /// Calls \p fn on every retained event in seq order.
  void visit(const EventFn& fn) const;
  /// Folds \p other's retained windows in, shifted by \p at_offset /
  /// \p seq_offset, exactly as if those events had been pushed here next.
  /// Capacities must match.
  void absorb(const RingSink& other, Time at_offset,
              std::uint64_t seq_offset);

  std::size_t per_node_capacity() const { return per_node_capacity_; }
  /// A node's ring; a shared empty ring for unseen nodes.
  const EventRing& ring(sim::NodeId node) const;

 private:
  std::size_t per_node_capacity_;
  /// Ordered map: node iteration order is deterministic and references
  /// stay stable while rings grow elsewhere.
  std::map<sim::NodeId, EventRing> rings_;
};

/// The full-fidelity disk backend: every event spooled to \p path.
class StreamSink {
 public:
  explicit StreamSink(std::string path,
                      std::size_t block_events = kSpoolBlockEvents);

  /// Must not be called after finalize().
  void push(const TraceEvent& e);
  /// Nodes with at least one pushed event or a label, ascending id.
  std::vector<sim::NodeId> nodes() const;
  /// Finalizes the spool (with no logs, if the recorder has not already
  /// finalized it) and streams every record back in seq order.
  void visit(const EventFn& fn) const;
  /// Finalizes \p other's spool and appends its records here shifted by
  /// \p at_offset / \p seq_offset (SpoolWriter::absorb: copied as
  /// encoded, never decoded). The sharded executor absorbs per-trip part
  /// spools this way, in trip order, so the session spool is
  /// byte-identical to a sequential recording's.
  void absorb(const StreamSink& other, Time at_offset,
              std::uint64_t seq_offset);
  /// Track label persisted in the spool footer.
  void set_node_label(sim::NodeId node, const std::string& label);
  /// Flushes and seals the spool with the recorder's routed \p logs (an
  /// export-time step, const like visit; idempotent, first logs win).
  void finalize(const std::vector<SpoolLog>& logs) const;

  const std::string& path() const { return writer_->path(); }
  bool finalized() const { return writer_->finalized(); }

 private:
  /// Heap-held so the sink moves without touching the open file.
  std::unique_ptr<SpoolWriter> writer_;
};

}  // namespace vifi::obs
