#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string>

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

/// Longest line a Line is asked to hold, with room to spare: a Chrome
/// event line is under 320 bytes (two 20-digit integers and two 24-byte
/// doubles at most, plus a 16-byte kind name and the field names).
constexpr std::size_t kLineBytes = 512;

/// Writes \p v as printf's "%.17g" renders it into [p, p + 32).
char* put_double(char* p, double v) {
  // Most event arguments are integral (zeros, attempts, flags), and %.17g
  // prints an integral value below 1e17 as that integer: take the cheap
  // integer path for those, except -0, which %.17g spells "-0".
  if (v > -1e17 && v < 1e17 &&
      v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      (v != 0.0 || !std::signbit(v)))
    return std::to_chars(p, p + 32, static_cast<std::int64_t>(v)).ptr;
  // general + precision 17 is printf's %.17g byte for byte (exponent
  // form, inf/nan spellings included); the shortest round-trip form of
  // plain std::to_chars is not, and would change every export.
  return std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
}

/// One output line rendered on the stack: literals are copied with
/// memcpy and numbers written with std::to_chars into a fixed buffer,
/// which reaches the output string in a single append. Strings of
/// unbounded length (labels, log messages) are escaped straight into the
/// output between two Lines.
class Line {
 public:
  Line() {}  // user-provided: `Line()` must not zero the buffer

  template <std::size_t N>
  Line& lit(const char (&s)[N]) {
    return raw(s, N - 1);
  }
  Line& str(const char* s) { return raw(s, std::strlen(s)); }
  template <typename Int>
  Line& num(Int v) {
    n_ = static_cast<std::size_t>(
        std::to_chars(buf_ + n_, buf_ + kLineBytes, v).ptr - buf_);
    return *this;
  }
  Line& dbl(double v) {
    n_ = static_cast<std::size_t>(put_double(buf_ + n_, v) - buf_);
    return *this;
  }
  /// "n<id>", or "-" for an invalid node.
  Line& node(sim::NodeId node) {
    return node.valid() ? lit("n").num(node.value()) : lit("-");
  }
  void append_to(std::string& out) const { out.append(buf_, n_); }

 private:
  Line& raw(const char* s, std::size_t n) {
    std::memcpy(buf_ + n_, s, n);
    n_ += n;
    return *this;
  }

  char buf_[kLineBytes];
  std::size_t n_ = 0;
};

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

/// A Chrome event line's object, after the separator \p line may carry.
void chrome_event(Line& line, const TraceEvent& e) {
  line.lit("{\"name\":\"")
      .str(to_string(e.kind))
      .lit("\",\"cat\":\"")
      .str(category(e.kind))
      .lit("\",\"pid\":0,\"tid\":")
      .num(tid_of(e.node))
      .lit(",\"ts\":")
      .num(e.at.to_micros());
  if (e.kind == EventKind::FrameTx) {
    // Frame transmissions are duration slices: `a` carries the airtime.
    line.lit(",\"ph\":\"X\",\"dur\":")
        .num(static_cast<std::int64_t>(e.a * 1e6 + 0.5));
  } else {
    line.lit(",\"ph\":\"i\",\"s\":\"t\"");
  }
  line.lit(",\"args\":{\"peer\":\"")
      .node(e.peer)
      .lit("\",\"id\":")
      .num(e.id)
      .lit(",\"a\":")
      .dbl(e.a)
      .lit(",\"b\":")
      .dbl(e.b)
      .lit(",\"c\":")
      .num(e.c)
      .lit("}}");
}

}  // namespace

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

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, put_double(buf, v));
}

void append_jsonl(std::string& out, const TraceEvent& e) {
  Line()
      .lit("{\"seq\":")
      .num(e.seq)
      .lit(",\"t_us\":")
      .num(e.at.to_micros())
      .lit(",\"kind\":\"")
      .str(to_string(e.kind))
      .lit("\",\"node\":\"")
      .node(e.node)
      .lit("\",\"peer\":\"")
      .node(e.peer)
      .lit("\",\"id\":")
      .num(e.id)
      .lit(",\"a\":")
      .dbl(e.a)
      .lit(",\"b\":")
      .dbl(e.b)
      .lit(",\"c\":")
      .num(e.c)
      .lit("}\n")
      .append_to(out);
}

void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os) {
  BlockWriter w(os);
  std::string& out = w.buf();
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto open_line = [&first] {
    Line line;
    if (!first) line.lit(",\n");
    first = false;
    return line;
  };

  // One named thread track per node (metadata events).
  for (const sim::NodeId node : recorder.nodes()) {
    Line line = open_line();
    line.lit("{\"ph\":\"M\",\"pid\":0,\"tid\":")
        .num(tid_of(node))
        .lit(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    if (node.valid())
      line.node(node);
    else
      line.lit("(none)");
    line.append_to(out);
    if (const std::string& label = recorder.node_label(node); !label.empty()) {
      out += ' ';
      append_escaped(out, label);
    }
    out += "\"}}";
  }
  const std::uint64_t dropped = recorder.dropped();
  if (!recorder.log_records().empty() || dropped > 0)
    open_line()
        .lit("{\"ph\":\"M\",\"pid\":0,\"tid\":")
        .num(kLogTid)
        .lit(",\"name\":\"thread_name\",\"args\":{\"name\":\"log\"}}")
        .append_to(out);

  // One pass over the recording: each event is rendered and fed to the
  // span layer (anchor tenures, coord-phase occupancy, contact runs),
  // whose open intervals close at the latest event time.
  SpanBuilder spans;
  Time horizon;
  recorder.visit([&](const TraceEvent& e) {
    Line line = open_line();
    chrome_event(line, e);
    line.append_to(out);
    w.spill();
    spans.add(e);
    horizon = std::max(horizon, e.at);
  });

  for (const Span& span : spans.finish(horizon)) {
    open_line().lit("{\"name\":\"").append_to(out);
    append_escaped(out, span_label(span));
    Line()
        .lit("\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,\"tid\":")
        .num(tid_of(span.node))
        .lit(",\"ts\":")
        .num(span.begin.to_micros())
        .lit(",\"dur\":")
        .num(span.duration().to_micros())
        .lit(",\"args\":{\"peer\":\"")
        .node(span.peer)
        .lit("\"}}")
        .append_to(out);
    w.spill();
  }

  if (dropped > 0) {
    open_line().lit("{\"name\":\"").append_to(out);
    append_escaped(out, dropped_warning(dropped));
    Line()
        .lit("\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":")
        .num(kLogTid)
        .lit(",\"ts\":0,\"args\":{\"dropped\":")
        .num(dropped)
        .lit("}}")
        .append_to(out);
  }

  for (const LogRecord& rec : recorder.log_records()) {
    open_line().lit("{\"name\":\"").append_to(out);
    append_escaped(out, rec.message);
    Line()
        .lit("\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":")
        .num(kLogTid)
        .lit(",\"ts\":")
        .num(rec.at.to_micros())
        .lit(",\"args\":{\"level\":")
        .num(static_cast<int>(rec.level))
        .lit("}}")
        .append_to(out);
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
    Line().lit("\",\"dropped\":").num(dropped).lit("}\n").append_to(out);
  }
  recorder.visit([&](const TraceEvent& e) {
    append_jsonl(out, e);
    w.spill();
  });
  for (const LogRecord& rec : recorder.log_records()) {
    Line()
        .lit("{\"seq\":")
        .num(rec.seq)
        .lit(",\"t_us\":")
        .num(rec.at.to_micros())
        .lit(",\"kind\":\"log\",\"level\":")
        .num(static_cast<int>(rec.level))
        .lit(",\"message\":\"")
        .append_to(out);
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
