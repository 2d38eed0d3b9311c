#pragma once

/// \file sink.h
/// TripScope's trace backends. A TraceRecorder owns exactly one
/// TraceSink, which decides what happens to recorded events after the
/// recorder has stamped them (timeline time, global seq):
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
/// Both sinks replay their retained events in seq order through one
/// visitor (`visit`) — the read path of the exporters and of `absorb`,
/// which lets the sharded executor stitch per-trip sinks into one session
/// sink with the same bytes a sequential recording would produce (the
/// determinism contract recorder.h states). A stream's visit is
/// SpoolReader's merge: it never holds the whole spool in memory.

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

/// Where a recorder's stamped events go. Implementations must preserve
/// the recorder's determinism contract: given the same push sequence,
/// the sink's observable state (and any file it writes) is identical.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Accepts one fully-stamped event (timeline time and seq assigned by
  /// the recorder).
  virtual void push(const TraceEvent& e) = 0;

  /// Events lost to this sink (ring overwrites; always 0 for streams).
  virtual std::uint64_t dropped() const = 0;

  /// Nodes with at least one retained event, ascending id.
  virtual std::vector<sim::NodeId> nodes() const = 0;

  /// Calls \p fn on every retained event in recording (seq ascending)
  /// order. For streams this finalizes the spool and streams it back.
  virtual void visit(const EventFn& fn) const = 0;

  /// visit() collected into a vector.
  std::vector<TraceEvent> events() const;

  /// Folds \p other's event stream in, shifted by \p at_offset /
  /// \p seq_offset, exactly as if those events had been pushed here
  /// next. \p other must be the same sink kind (and, for rings, the
  /// same capacity); it may be finalized in the process.
  virtual void absorb(TraceSink& other, Time at_offset,
                      std::uint64_t seq_offset) = 0;

  /// Human-readable track label for a node. Streams persist it in the
  /// spool footer; rings ignore it (the recorder keeps its own map).
  virtual void set_node_label(sim::NodeId node, const std::string& label);

  /// Flushes and seals the sink's backing store with the recorder's
  /// routed \p logs. No-op for rings; for streams, pushes after this
  /// violate the spool writer's contract.
  virtual void finalize(const std::vector<SpoolLog>& logs);
};

/// The default in-memory backend: one EventRing per node.
class RingSink final : public TraceSink {
 public:
  explicit RingSink(std::size_t per_node_capacity);

  void push(const TraceEvent& e) override;
  std::uint64_t dropped() const override;
  std::vector<sim::NodeId> nodes() const override;
  void visit(const EventFn& fn) const override;
  void absorb(TraceSink& other, Time at_offset,
              std::uint64_t seq_offset) override;

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
class StreamSink final : public TraceSink {
 public:
  explicit StreamSink(std::string path,
                      std::size_t block_events = kSpoolBlockEvents);

  void push(const TraceEvent& e) override;
  std::uint64_t dropped() const override { return 0; }
  std::vector<sim::NodeId> nodes() const override;
  /// Finalizes the spool (with no logs, if the recorder has not already
  /// finalized it) and streams every record back in seq order.
  void visit(const EventFn& fn) const override;
  /// \p other must be a StreamSink; its spool is finalized and visited,
  /// each record pushed here shifted. The sharded executor absorbs
  /// per-trip part spools this way, in trip order, so the session spool
  /// is byte-identical to a sequential recording's.
  void absorb(TraceSink& other, Time at_offset,
              std::uint64_t seq_offset) override;
  void set_node_label(sim::NodeId node, const std::string& label) override;
  void finalize(const std::vector<SpoolLog>& logs) override;

  const std::string& path() const { return writer_->path(); }
  bool finalized() const { return writer_->finalized(); }
  std::uint64_t pushed() const { return writer_->pushed(); }

 private:
  std::unique_ptr<SpoolWriter> writer_;
};

}  // namespace vifi::obs
