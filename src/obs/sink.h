#pragma once

/// \file sink.h
/// TripScope's trace backend: a StreamSink spools every event a
/// TraceRecorder (recorder.h) hands it, stamped with its timeline time and
/// global seq, into a chunked per-node binary file (spool.h), flushing in
/// fixed-size blocks off the hot path. It never drops an event.
///
/// `visit` replays the spool in seq order through SpoolReader's merge —
/// the read path of the exporters, which never holds the whole spool in
/// memory. `absorb` folds another sink's spool in, so the sharded executor
/// can stitch per-trip part spools into one session spool with the same
/// bytes a sequential recording would produce (the determinism contract
/// recorder.h states).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/spool.h"
#include "sim/ids.h"
#include "util/time.h"

namespace vifi::obs {

/// The recorder's backend: every event spooled to \p path.
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
