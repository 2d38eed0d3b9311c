#pragma once

/// \file export.h
/// Timeline exporters for TripScope recordings.
///
/// Two formats:
///  * Chrome trace-event JSON (`{"traceEvents": [...]}`), loadable in
///    Perfetto / chrome://tracing: one track (tid) per simulated node,
///    frame transmissions as duration ("X") slices, everything else as
///    instant ("i") events with the typed arguments in `args` — plus the
///    derived span layer (span.h) as "X" slices under cat "span", so
///    anchor tenures, coord-phase occupancy, and contacts render as bars.
///  * JSONL: one event object per line in deterministic recording order —
///    the grep/jq-friendly stream, byte-identical across runner thread
///    counts for the same point.
///
/// Both renderings are pure functions of the recorder's contents. Each is
/// one streaming pass over TraceRecorder::visit — for a spooled recorder
/// the spool is merged chunk by chunk, never held whole — rendering each
/// event line into one stack buffer (literals by memcpy, numbers by
/// std::to_chars) that is appended to the output once. The writers only
/// read the recorder, so once a streaming recorder is finalized several
/// may run at once: the runtime writes a point's files concurrently on
/// the point's own pool.
/// When a ring-backed recorder has overwritten events (`dropped() > 0`)
/// both formats carry a one-line truncation warning, because silent
/// truncation made count reconciliation fail with no visible cause.

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/recorder.h"

namespace vifi::obs {

/// The trace-event category of \p kind ("beacon", "relay", "mac"...).
const char* category(EventKind kind);

/// Escapes a string for embedding inside a JSON string literal
/// (quotes, backslashes, control characters as \uXXXX).
std::string json_escape(std::string_view s);

/// Appends \p v exactly as printf's "%.17g" renders it — the exporters'
/// one double format.
void append_double(std::string& out, double v);

/// Appends \p e as one JSONL line (newline included): the per-event line
/// of write_jsonl, shared with `tripscope query --jsonl`.
void append_jsonl(std::string& out, const TraceEvent& e);

/// Chrome trace-event JSON. `pid` 0 carries the whole deployment; each
/// node is a named thread track; routed log lines ride a "log" track.
void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os);
std::string chrome_trace_json(const TraceRecorder& recorder);

/// One JSON object per line: events in seq order, then log records.
void write_jsonl(const TraceRecorder& recorder, std::ostream& os);
std::string events_jsonl(const TraceRecorder& recorder);

}  // namespace vifi::obs
