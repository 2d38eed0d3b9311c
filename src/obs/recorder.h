#pragma once

/// \file recorder.h
/// TripScope's TraceRecorder: typed protocol events (event.h) stamped
/// with a timeline time and a recorder-wide sequence number, handed to
/// the one backend the recorder holds by value (sink.h) — a RingSink of
/// per-node rings by default, or a StreamSink disk spool for
/// full-fidelity city-scale timelines — plus a bounded side channel for
/// routed log lines. The backend is fixed at construction; the recorder
/// is the only place that dispatches on which one it holds.
///
/// Recording is *pull-free and allocation-free on the steady state* with
/// the default ring sink: each node's events land in a fixed-capacity
/// ring that overwrites its oldest entries on wrap (the newest window is
/// what a timeline wants), and the recorder-wide sequence number makes
/// the merged stream deterministic.
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
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "obs/event.h"
#include "obs/sink.h"
#include "sim/ids.h"
#include "util/logging.h"
#include "util/time.h"

namespace vifi::obs {

/// A routed log line (the VIFI_WARN+ channel, satellite of ISSUE 6).
struct LogRecord {
  Time at;
  std::uint64_t seq = 0;
  LogLevel level = LogLevel::Warn;
  std::string message;
};

class TraceRecorder {
 public:
  /// Ring-backed recorder (the default): \p per_node_capacity bounds
  /// each node's ring (64 B per slot).
  explicit TraceRecorder(std::size_t per_node_capacity = 1 << 14);

  /// Stream-backed recorder — `std::make_unique<StreamSink>(path)` for a
  /// full-fidelity disk spool.
  explicit TraceRecorder(std::unique_ptr<StreamSink> stream);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records one event at time base() + \p at (the caller passes its
  /// simulator-local clock; the base stitches successive trips onto one
  /// timeline).
  void record(EventKind kind, Time at, sim::NodeId node,
              sim::NodeId peer = {}, std::uint64_t id = 0, double a = 0.0,
              double b = 0.0, std::int32_t c = 0);

  /// Records a routed log line (bounded; oldest dropped first). The
  /// timestamp is base() + the last recorded event's local time — logging
  /// has no clock of its own.
  void log(LogLevel level, std::string message);

  /// Timeline offset added to every recorded time. The runtime sets this
  /// to the accumulated horizon before each trip of a point, so one
  /// recorder holds the whole point's timeline.
  void set_time_base(Time base) { base_ = base; }
  Time time_base() const { return base_; }
  /// Each node's ring capacity; expects a ring recorder (!streaming()).
  std::size_t per_node_capacity() const;

  /// True when the backend is a StreamSink (events spooled to disk).
  bool streaming() const { return std::holds_alternative<StreamSink>(sink_); }
  /// The stream sink's spool path; expects streaming().
  const std::string& spool_path() const;
  /// Seals a streaming recorder's spool (flushes residual blocks, writes
  /// the footer with the routed logs). No-op for ring recorders and on
  /// repeat calls; recording after finalize is a contract violation.
  void finalize() const;

  /// Folds a whole recorder in: \p other's events land at their recorded
  /// time plus \p offset, with sequence numbers continued after this
  /// recorder's. When \p other recorded one trip (base 0) and \p offset is
  /// the accumulated horizon, the result is byte-identical to having
  /// recorded that trip directly into this recorder under
  /// set_time_base(offset) — including ring overwrite behaviour and
  /// per-kind counts (sink kinds must match; ring capacities must match).
  /// The sharded executor uses this to stitch per-worker trip recorders
  /// into one point timeline; a stream \p other's part spool is finalized
  /// and copied in whole, record by record (streams never drop).
  void absorb(const TraceRecorder& other, Time offset);

  /// Human-readable track label for a node ("bs", "vehicle", "host").
  void set_node_label(sim::NodeId node, std::string label);
  const std::string& node_label(sim::NodeId node) const;

  // --- queries (exporters, tests, the tripscope CLI) ---------------------
  /// Nodes with at least one event or a label, ascending id.
  std::vector<sim::NodeId> nodes() const;
  /// A node's ring; an empty one for unseen nodes and stream recorders.
  const EventRing& ring(sim::NodeId node) const;
  /// Calls \p fn on every retained event in recording order (seq
  /// ascending). For a streaming recorder this finalizes the spool and
  /// streams it back through SpoolReader's merge, one chunk per node in
  /// memory — it is an export-time call, not a mid-run one.
  void visit(const EventFn& fn) const;
  /// visit() collected into a vector.
  std::vector<TraceEvent> merged() const;
  const std::deque<LogRecord>& log_records() const { return logs_; }

  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring overwrites (streams never drop).
  std::uint64_t dropped() const;
  /// Total events recorded of one kind (counted even when a ring has
  /// since overwritten them — reconciliation wants exact counts).
  std::uint64_t count(EventKind kind) const {
    return kind_counts_[static_cast<int>(kind)];
  }

 private:
  std::vector<SpoolLog> spool_logs() const;

  Time base_;
  Time last_local_;  ///< Last record()'s local time, for log timestamps.
  std::uint64_t next_seq_ = 1;
  std::uint64_t recorded_ = 0;
  std::uint64_t kind_counts_[kEventKindCount] = {};
  std::variant<RingSink, StreamSink> sink_;
  std::map<sim::NodeId, std::string> labels_;
  std::deque<LogRecord> logs_;
  static constexpr std::size_t kMaxLogRecords = 4096;
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
