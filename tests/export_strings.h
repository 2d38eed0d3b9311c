#pragma once

/// \file export_strings.h
/// The exporters' output as strings, for tests that compare or search a
/// recorder's whole export (the library writes to streams only).

#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/recorder.h"

namespace vifi::obs {

/// \p recorder's Chrome trace JSON (write_chrome_trace into a string).
inline std::string chrome_trace_json(const TraceRecorder& recorder) {
  std::ostringstream os;
  write_chrome_trace(recorder, os);
  return os.str();
}

/// \p recorder's JSONL stream (write_jsonl into a string).
inline std::string events_jsonl(const TraceRecorder& recorder) {
  std::ostringstream os;
  write_jsonl(recorder, os);
  return os.str();
}

}  // namespace vifi::obs
