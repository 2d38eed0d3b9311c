#include "obs/export.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/span.h"
#include "util/contracts.h"

namespace vifi::obs {

namespace {

/// Track id for nodes that have none (invalid NodeId) — well clear of any
/// simulated node id.
constexpr int kNoNodeTid = 1000000;

int tid_of(sim::NodeId node) {
  return node.valid() ? node.value() : kNoNodeTid;
}

/// Longest line a Line is asked to hold, with room to spare: a Chrome
/// event line is under 320 bytes (two 20-digit integers and two 24-byte
/// doubles at most, plus a 16-byte kind name and the field names), and a
/// fixed-width copy writes at most 64 bytes past a line's end.
constexpr std::size_t kLineBytes = 512;

/// True when %.17g prints \p v as an integer (below 1e17 and integral),
/// except -0, which %.17g spells "-0".
bool prints_as_integer(double v) {
  return v > -1e17 && v < 1e17 &&
         v == static_cast<double>(static_cast<std::int64_t>(v)) &&
         (v != 0.0 || !std::signbit(v));
}

/// Writes \p v as printf's "%.17g" renders it into [p, p + 32).
char* put_double(char* p, double v) {
  // Most event arguments are integral (zeros, attempts, flags): take the
  // cheap integer path for those.
  if (prints_as_integer(v))
    return std::to_chars(p, p + 32, static_cast<std::int64_t>(v)).ptr;
  // general + precision 17 is printf's %.17g byte for byte (exponent
  // form, inf/nan spellings included); the shortest round-trip form of
  // plain std::to_chars is not, and would change every export.
  return std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
}

/// put_double through a direct-mapped cache keyed by the double's bits:
/// an export renders each distinct non-integral value once (a recording
/// repeats a few hundred airtimes and probabilities many thousand times).
class DoubleMemo {
 public:
  char* put(char* p, double v) {
    if (prints_as_integer(v))
      return std::to_chars(p, p + 32, static_cast<std::int64_t>(v)).ptr;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Integral values never get here, so bits 0 (+0.0) marks a free slot.
    Slot& slot = slots_[(bits * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits)];
    if (slot.bits != bits) {
      slot.bits = bits;
      slot.len = static_cast<std::uint8_t>(
          std::to_chars(slot.text, slot.text + sizeof(slot.text), v,
                        std::chars_format::general, 17)
              .ptr -
          slot.text);
    }
    std::memcpy(p, slot.text, sizeof(slot.text));  // fixed width; see Line
    return p + slot.len;
  }

 private:
  static constexpr int kSlotBits = 10;
  struct Slot {
    std::uint64_t bits = 0;
    std::uint8_t len = 0;
    char text[24];  ///< %.17g is at most 24 bytes ("-1.2345678901234567e-308").
  };
  Slot slots_[std::size_t{1} << kSlotBits];
};

/// A short constant text kept in a fixed-width array, so a line copies
/// all kWidth bytes with one fixed-size move (the line buffer has room
/// to spare) and keeps the first `len`.
struct Snippet {
  static constexpr std::size_t kWidth = 64;
  char text[kWidth] = {};
  std::size_t len = 0;

  explicit Snippet(const std::string& s) : len(s.size()) {
    VIFI_ENSURES(len <= kWidth);
    std::memcpy(text, s.data(), len);
  }
};

/// The constant text of each kind's lines: the Chrome event head up to
/// the tid, and the JSONL kind and node keys.
struct KindText {
  Snippet chrome_head;
  Snippet jsonl_kind;
};

const KindText& kind_text(EventKind kind) {
  static const std::vector<KindText> texts = [] {
    std::vector<KindText> out;
    out.reserve(kEventKindCount);
    for (int k = 0; k < kEventKindCount; ++k) {
      const auto kind = static_cast<EventKind>(k);
      const std::string name = to_string(kind);
      out.push_back({Snippet("{\"name\":\"" + name + "\",\"cat\":\"" +
                             category(kind) + "\",\"pid\":0,\"tid\":"),
                     Snippet(",\"kind\":\"" + name + "\",\"node\":\"")});
    }
    return out;
  }();
  return texts[static_cast<int>(kind)];
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
  Line& str(const Snippet& s) {
    std::memcpy(buf_ + n_, s.text, Snippet::kWidth);
    n_ += s.len;
    return *this;
  }
  template <typename Int>
  Line& num(Int v) {
    n_ = static_cast<std::size_t>(
        std::to_chars(buf_ + n_, buf_ + kLineBytes, v).ptr - buf_);
    return *this;
  }
  /// \p v, through \p memo when there is one.
  Line& dbl(double v, DoubleMemo* memo = nullptr) {
    char* p = buf_ + n_;
    n_ = static_cast<std::size_t>(
        (memo != nullptr ? memo->put(p, v) : put_double(p, v)) - buf_);
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
void chrome_event(Line& line, const TraceEvent& e, DoubleMemo& memo) {
  line.str(kind_text(e.kind).chrome_head)
      .num(tid_of(e.node))
      .lit(",\"ts\":")
      .num(e.at.to_micros());
  if (e.kind == EventKind::FrameTx) {
    // Frame transmissions are duration slices: `a` carries the airtime.
    line.lit(",\"ph\":\"X\",\"dur\":")
        .num(static_cast<std::int64_t>(e.a * 1e6 + 0.5))
        .lit(",\"args\":{\"peer\":\"");
  } else {
    line.lit(",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"peer\":\"");
  }
  line.node(e.peer)
      .lit("\",\"id\":")
      .num(e.id)
      .lit(",\"a\":")
      .dbl(e.a, &memo)
      .lit(",\"b\":")
      .dbl(e.b, &memo)
      .lit(",\"c\":")
      .num(e.c)
      .lit("}}");
}

/// append_jsonl's line, its doubles rendered through \p memo if any.
void jsonl_event(std::string& out, const TraceEvent& e, DoubleMemo* memo) {
  Line()
      .lit("{\"seq\":")
      .num(e.seq)
      .lit(",\"t_us\":")
      .num(e.at.to_micros())
      .str(kind_text(e.kind).jsonl_kind)
      .node(e.node)
      .lit("\",\"peer\":\"")
      .node(e.peer)
      .lit("\",\"id\":")
      .num(e.id)
      .lit(",\"a\":")
      .dbl(e.a, memo)
      .lit(",\"b\":")
      .dbl(e.b, memo)
      .lit(",\"c\":")
      .num(e.c)
      .lit("}\n")
      .append_to(out);
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
  jsonl_event(out, e, nullptr);
}

void write_exports(const SpoolReader& reader, std::ostream* chrome_os,
                   std::ostream* jsonl_os) {
  std::optional<BlockWriter> chrome, jsonl;
  if (chrome_os != nullptr) chrome.emplace(*chrome_os);
  if (jsonl_os != nullptr) jsonl.emplace(*jsonl_os);
  bool first = true;
  const auto open_line = [&first] {
    Line line;
    if (!first) line.lit(",\n");
    first = false;
    return line;
  };
  if (chrome) {
    std::string& out = chrome->buf();
    out += "{\"traceEvents\":[\n";
    // One named thread track per node (metadata events).
    for (const SpoolNodeIndex& idx : reader.nodes()) {
      Line line = open_line();
      line.lit("{\"ph\":\"M\",\"pid\":0,\"tid\":")
          .num(tid_of(idx.node))
          .lit(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
      (idx.node.valid() ? line.node(idx.node) : line.lit("(none)"))
          .append_to(out);
      if (!idx.label.empty()) {
        out += ' ';
        append_escaped(out, idx.label);
      }
      out += "\"}}";
    }
  }

  // One pass over the spool: each event is rendered into both outputs and
  // fed to the span layer (anchor tenures, coord-phase occupancy, contact
  // runs), whose open intervals close at the spool's latest event time.
  SpanBuilder spans;
  DoubleMemo memo;
  reader.visit([&](const TraceEvent& e) {
    if (chrome) {
      Line line = open_line();
      chrome_event(line, e, memo);
      line.append_to(chrome->buf());
      chrome->spill();
      spans.add(e);
    }
    if (jsonl) {
      jsonl_event(jsonl->buf(), e, &memo);
      jsonl->spill();
    }
  });

  if (chrome) {
    std::string& out = chrome->buf();
    for (const Span& span : spans.finish(Time::micros(reader.max_at_us()))) {
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
      chrome->spill();
    }
    out += "\n]}\n";
    chrome->flush();
  }
  if (jsonl) jsonl->flush();
}

void export_spool(const std::string& spool_path) {
  const SpoolReader reader(spool_path);
  const std::string base =
      std::filesystem::path(spool_path).replace_extension().string();
  const std::string chrome_path = base + ".trace.json";
  const std::string jsonl_path = base + ".jsonl";
  std::ofstream chrome(chrome_path), jsonl(jsonl_path);
  write_exports(reader, &chrome, &jsonl);
  chrome.close();
  jsonl.close();
  if (chrome.fail()) throw std::runtime_error("cannot write " + chrome_path);
  if (jsonl.fail()) throw std::runtime_error("cannot write " + jsonl_path);
}

void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os) {
  recorder.finalize();
  write_exports(SpoolReader(recorder.spool_path()), &os, nullptr);
}

void write_jsonl(const TraceRecorder& recorder, std::ostream& os) {
  recorder.finalize();
  write_exports(SpoolReader(recorder.spool_path()), nullptr, &os);
}

}  // namespace vifi::obs
