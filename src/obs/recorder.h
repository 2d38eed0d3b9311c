#pragma once

/// \file recorder.h
/// TripScope's TraceRecorder: typed protocol events (event.h) stamped
/// with a timeline time and a recorder-wide sequence number, spooled to
/// disk by the recorder's SpoolWriter (spool.h). Every event is kept: the
/// spool buffers each node's events in fixed-size blocks and appends them
/// off the hot path, and the recorder-wide sequence number makes the
/// merged stream deterministic. A caller names the spool file, or a
/// default-constructed recorder spools into a scratch directory of its
/// own, removed with the recorder.
///
/// Enabling/disabling is a thread-local pointer: `current_recorder()`
/// returns the recorder installed by the innermost `TraceScope` on this
/// thread, or nullptr. Call sites are written as
///
///     obs::TraceRecorder* rec = obs::current_recorder();
///     if (rec) rec->record(...);
///
/// so with tracing off the whole observability layer costs one
/// thread-local load and a branch per instrumented site (perf-gated by
/// bench/perf_suite). Runtime workers each install their own recorder, so
/// concurrent points never share one.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/spool.h"
#include "sim/ids.h"
#include "util/scratch_dir.h"
#include "util/time.h"

namespace vifi::obs {

class TraceRecorder {
 public:
  /// A recorder spooling into a scratch directory of its own, which is
  /// removed with everything in it when the recorder goes away.
  TraceRecorder();

  /// A recorder spooling to the caller's writer —
  /// `std::make_unique<SpoolWriter>(path)` keeps the spool at `path`.
  explicit TraceRecorder(std::unique_ptr<SpoolWriter> spool);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records one event at time base() + \p at (the caller passes its
  /// simulator-local clock; the base stitches successive trips onto one
  /// timeline). \p kind must not be EventKind::Log, which no event carries.
  void record(EventKind kind, Time at, sim::NodeId node,
              sim::NodeId peer = {}, std::uint64_t id = 0, double a = 0.0,
              double b = 0.0, std::int32_t c = 0);

  /// Timeline offset added to every recorded time. The runtime sets this
  /// to the accumulated horizon before each trip of a point, so one
  /// recorder holds the whole point's timeline.
  void set_time_base(Time base) { base_ = base; }
  Time time_base() const { return base_; }

  /// The spool file.
  const std::string& spool_path() const { return spool_->path(); }
  /// Seals the spool (flushes residual blocks, writes the footer). No-op
  /// on repeat calls; recording after finalize is a contract violation.
  void finalize() const;

  /// Folds a whole recorder in: \p other's events land at their recorded
  /// time plus \p offset, with sequence numbers continued after this
  /// recorder's. When \p other recorded one trip (base 0) and \p offset is
  /// the accumulated horizon, the result is byte-identical to having
  /// recorded that trip directly into this recorder under
  /// set_time_base(offset), per-kind counts included. The sharded
  /// executor uses this to stitch per-worker trip recorders into one point
  /// timeline: \p other's part spool is finalized and copied in whole,
  /// record by record.
  void absorb(const TraceRecorder& other, Time offset);

  /// Human-readable track label for a node ("bs", "vehicle", "host"),
  /// kept in the spool's node index.
  void set_node_label(sim::NodeId node, std::string label);

  /// Every event in recording order (seq ascending), read back from the
  /// spool, which this seals: an end-of-run call, not a mid-run one.
  std::vector<TraceEvent> merged() const;

  /// Total events recorded (absorbed ones included): the spool's count.
  std::uint64_t recorded() const { return spool_->pushed(); }
  /// Always 0: the spool keeps every event. Kept for callers that still
  /// report it (benchmark/vifibench.cc's obs.dropped count).
  std::uint64_t dropped() const { return 0; }
  /// Total events recorded of one kind.
  std::uint64_t count(EventKind kind) const {
    return spool_->kind_count(kind);
  }

 private:
  Time base_;
  /// The default constructor's spool directory, declared before spool_ so
  /// the spool is closed before the directory is removed.
  std::unique_ptr<ScratchDir> scratch_;
  /// Heap-held, so const export calls may seal it (finalize, visit).
  std::unique_ptr<SpoolWriter> spool_;
  std::map<sim::NodeId, std::string> labels_;
};

/// The recorder installed on this thread, or nullptr when tracing is off.
TraceRecorder* current_recorder();

/// RAII installation of a recorder into the thread-local slot. Nests;
/// restores the previous recorder on destruction.
class TraceScope {
 public:
  explicit TraceScope(TraceRecorder& recorder);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* prev_;
};

}  // namespace vifi::obs
