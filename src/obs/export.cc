#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/span.h"

namespace vifi::obs {

namespace {

/// Track id for nodes that have none (invalid NodeId) and for the log
/// track — well clear of any simulated node id.
constexpr int kNoNodeTid = 1000000;
constexpr int kLogTid = 1000001;

int tid_of(sim::NodeId node) {
  return node.valid() ? node.value() : kNoNodeTid;
}

const char* category(EventKind kind) {
  switch (kind) {
    case EventKind::BeaconTx:
    case EventKind::BeaconRx:
      return "beacon";
    case EventKind::AnchorChange:
    case EventKind::AuxSetChange:
      return "designation";
    case EventKind::RelayEval:
    case EventKind::RelayTx:
      return "relay";
    case EventKind::SalvageRequest:
    case EventKind::SalvageHandoff:
    case EventKind::SalvageDeliver:
      return "salvage";
    case EventKind::FrameEnqueue:
    case EventKind::FrameTx:
    case EventKind::FrameDecode:
    case EventKind::FrameCollide:
    case EventKind::FrameDeliver:
    case EventKind::FrameDrop:
      return "mac";
    case EventKind::AppDeliver:
      return "app";
    case EventKind::Handoff:
      return "handoff";
    case EventKind::CoordTransition:
    case EventKind::CoordPrestage:
    case EventKind::CoordSuppress:
      return "coord";
    case EventKind::Log:
      return "log";
  }
  return "?";
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// "n<id>", or "-" for an invalid node.
void append_node(std::string& out, sim::NodeId node) {
  if (!node.valid()) {
    out += '-';
    return;
  }
  out += 'n';
  append_int(out, node.value());
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          const auto u = static_cast<unsigned char>(ch);
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        } else {
          out += ch;
        }
    }
  }
}

std::string dropped_warning(std::uint64_t dropped) {
  return "ring dropped " + std::to_string(dropped) +
         " events (oldest overwritten); timeline is truncated — use "
         "--trace-stream for full fidelity";
}

/// One export's rendering buffer: lines are appended to a single reused
/// string that goes to the stream in large blocks.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& os) : os_(os) {
    buf_.reserve(kBlockBytes + 1024);
  }

  std::string& buf() { return buf_; }

  /// Writes the buffer out once it holds a block's worth.
  void spill() {
    if (buf_.size() >= kBlockBytes) flush();
  }

  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  std::ostream& os_;
  std::string buf_;
};

void append_chrome_event(std::string& out, const TraceEvent& e) {
  out += "{\"name\":\"";
  out += to_string(e.kind);
  out += "\",\"cat\":\"";
  out += category(e.kind);
  out += "\",\"pid\":0,\"tid\":";
  append_int(out, tid_of(e.node));
  out += ",\"ts\":";
  append_int(out, e.at.to_micros());
  if (e.kind == EventKind::FrameTx) {
    // Frame transmissions are duration slices: `a` carries the airtime.
    out += ",\"ph\":\"X\",\"dur\":";
    append_int(out, static_cast<std::int64_t>(e.a * 1e6 + 0.5));
  } else {
    out += ",\"ph\":\"i\",\"s\":\"t\"";
  }
  out += ",\"args\":{\"peer\":\"";
  append_node(out, e.peer);
  out += "\",\"id\":";
  append_int(out, e.id);
  out += ",\"a\":";
  append_double(out, e.a);
  out += ",\"b\":";
  append_double(out, e.b);
  out += ",\"c\":";
  append_int(out, e.c);
  out += "}}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_double(std::string& out, double v) {
  // Most event arguments are integral (zeros, attempts, flags), and %.17g
  // prints an integral value below 1e17 as that integer: take the cheap
  // integer path for those, except -0, which %.17g spells "-0".
  if (v > -1e17 && v < 1e17 &&
      v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      (v != 0.0 || !std::signbit(v))) {
    append_int(out, static_cast<std::int64_t>(v));
    return;
  }
  // general + precision 17 is printf's %.17g byte for byte (exponent
  // form, inf/nan spellings included); the shortest round-trip form of
  // plain std::to_chars is not, and would change every export.
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_jsonl(std::string& out, const TraceEvent& e) {
  out += "{\"seq\":";
  append_int(out, e.seq);
  out += ",\"t_us\":";
  append_int(out, e.at.to_micros());
  out += ",\"kind\":\"";
  out += to_string(e.kind);
  out += "\",\"node\":\"";
  append_node(out, e.node);
  out += "\",\"peer\":\"";
  append_node(out, e.peer);
  out += "\",\"id\":";
  append_int(out, e.id);
  out += ",\"a\":";
  append_double(out, e.a);
  out += ",\"b\":";
  append_double(out, e.b);
  out += ",\"c\":";
  append_int(out, e.c);
  out += "}\n";
}

void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os) {
  BlockWriter w(os);
  std::string& out = w.buf();
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto open_line = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };

  // One named thread track per node (metadata events).
  for (const sim::NodeId node : recorder.nodes()) {
    open_line();
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    append_int(out, tid_of(node));
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (node.valid())
      append_node(out, node);
    else
      out += "(none)";
    if (const std::string& label = recorder.node_label(node); !label.empty()) {
      out += ' ';
      append_escaped(out, label);
    }
    out += "\"}}";
  }
  const std::uint64_t dropped = recorder.dropped();
  if (!recorder.log_records().empty() || dropped > 0) {
    open_line();
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    append_int(out, kLogTid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"log\"}}";
  }

  // One pass over the recording: each event is rendered and fed to the
  // span layer (anchor tenures, coord-phase occupancy, contact runs),
  // whose open intervals close at the latest event time.
  SpanBuilder spans;
  Time horizon;
  recorder.visit([&](const TraceEvent& e) {
    open_line();
    append_chrome_event(out, e);
    w.spill();
    spans.add(e);
    horizon = std::max(horizon, e.at);
  });

  for (const Span& span : spans.finish(horizon)) {
    open_line();
    out += "{\"name\":\"";
    append_escaped(out, span_label(span));
    out += "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    append_int(out, tid_of(span.node));
    out += ",\"ts\":";
    append_int(out, span.begin.to_micros());
    out += ",\"dur\":";
    append_int(out, span.duration().to_micros());
    out += ",\"args\":{\"peer\":\"";
    append_node(out, span.peer);
    out += "\"}}";
    w.spill();
  }

  if (dropped > 0) {
    open_line();
    out += "{\"name\":\"";
    append_escaped(out, dropped_warning(dropped));
    out += "\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":";
    append_int(out, kLogTid);
    out += ",\"ts\":0,\"args\":{\"dropped\":";
    append_int(out, dropped);
    out += "}}";
  }

  for (const LogRecord& rec : recorder.log_records()) {
    open_line();
    out += "{\"name\":\"";
    append_escaped(out, rec.message);
    out += "\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":";
    append_int(out, kLogTid);
    out += ",\"ts\":";
    append_int(out, rec.at.to_micros());
    out += ",\"args\":{\"level\":";
    append_int(out, static_cast<int>(rec.level));
    out += "}}";
    w.spill();
  }

  out += "\n]}\n";
  w.flush();
}

std::string chrome_trace_json(const TraceRecorder& recorder) {
  std::ostringstream os;
  write_chrome_trace(recorder, os);
  return os.str();
}

void write_jsonl(const TraceRecorder& recorder, std::ostream& os) {
  BlockWriter w(os);
  std::string& out = w.buf();
  if (const std::uint64_t dropped = recorder.dropped(); dropped > 0) {
    out += "{\"warning\":\"";
    append_escaped(out, dropped_warning(dropped));
    out += "\",\"dropped\":";
    append_int(out, dropped);
    out += "}\n";
  }
  recorder.visit([&](const TraceEvent& e) {
    append_jsonl(out, e);
    w.spill();
  });
  for (const LogRecord& rec : recorder.log_records()) {
    out += "{\"seq\":";
    append_int(out, rec.seq);
    out += ",\"t_us\":";
    append_int(out, rec.at.to_micros());
    out += ",\"kind\":\"log\",\"level\":";
    append_int(out, static_cast<int>(rec.level));
    out += ",\"message\":\"";
    append_escaped(out, rec.message);
    out += "\"}\n";
    w.spill();
  }
  w.flush();
}

std::string events_jsonl(const TraceRecorder& recorder) {
  std::ostringstream os;
  write_jsonl(recorder, os);
  return os.str();
}

}  // namespace vifi::obs
