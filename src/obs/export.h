#pragma once

/// \file export.h
/// Timeline exporters for TripScope spools.
///
/// Two formats, both pure functions of the spool and rendered together in
/// one pass over SpoolReader::visit (the chunk-by-chunk merge; the spool
/// is never held whole):
///  * Chrome trace-event JSON (`{"traceEvents": [...]}`), loadable in
///    Perfetto / chrome://tracing: `pid` 0 carries the whole deployment,
///    one named track (tid) per node; frame transmissions are duration
///    ("X") slices, everything else instant ("i") events with the typed
///    arguments in `args`, plus the derived span layer (span.h) as "X"
///    slices under cat "span", so anchor tenures, coord-phase occupancy,
///    and contacts render as bars.
///  * JSONL: one object per line, events in seq order — the
///    grep/jq-friendly stream.
///
/// Each event line is rendered into one stack buffer (literals by memcpy,
/// numbers by std::to_chars) and appended to its output once.
/// `sweep --trace` writes only the spool and its metrics; export_spool
/// (`tripscope export`) renders the two text files from it.

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/recorder.h"
#include "obs/spool.h"

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

/// Renders the spool \p reader reads in one SpoolReader::visit: Chrome
/// JSON into \p chrome and JSONL into \p jsonl, either of which may be null.
void write_exports(const SpoolReader& reader, std::ostream* chrome,
                   std::ostream* jsonl);

/// Renders the spool at \p spool_path into `X.trace.json` and `X.jsonl`
/// beside it (X the spool's path without its extension), in one pass.
/// Throws std::runtime_error naming the file it cannot read or write.
void export_spool(const std::string& spool_path);

/// One format of a recorder's spool, sealed first (see write_exports).
void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os);
void write_jsonl(const TraceRecorder& recorder, std::ostream& os);

}  // namespace vifi::obs
