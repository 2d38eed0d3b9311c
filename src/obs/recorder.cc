#include "obs/recorder.h"

#include <algorithm>
#include <type_traits>

#include "util/contracts.h"

namespace vifi::obs {

namespace {
thread_local TraceRecorder* t_current = nullptr;

StreamSink take(std::unique_ptr<StreamSink> stream) {
  VIFI_EXPECTS(stream != nullptr);
  return std::move(*stream);
}
}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::BeaconTx:
      return "beacon_tx";
    case EventKind::BeaconRx:
      return "beacon_rx";
    case EventKind::AnchorChange:
      return "anchor_change";
    case EventKind::AuxSetChange:
      return "aux_set_change";
    case EventKind::RelayEval:
      return "relay_eval";
    case EventKind::RelayTx:
      return "relay_tx";
    case EventKind::SalvageRequest:
      return "salvage_request";
    case EventKind::SalvageHandoff:
      return "salvage_handoff";
    case EventKind::SalvageDeliver:
      return "salvage_deliver";
    case EventKind::FrameEnqueue:
      return "frame_enqueue";
    case EventKind::FrameTx:
      return "frame_tx";
    case EventKind::FrameDecode:
      return "frame_decode";
    case EventKind::FrameCollide:
      return "frame_collide";
    case EventKind::FrameDeliver:
      return "frame_deliver";
    case EventKind::FrameDrop:
      return "frame_drop";
    case EventKind::AppDeliver:
      return "app_deliver";
    case EventKind::Handoff:
      return "handoff";
    case EventKind::CoordTransition:
      return "coord_transition";
    case EventKind::CoordPrestage:
      return "coord_prestage";
    case EventKind::CoordSuppress:
      return "coord_suppress";
    case EventKind::Log:
      return "log";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t per_node_capacity)
    : sink_(std::in_place_type<RingSink>, per_node_capacity) {}

TraceRecorder::TraceRecorder(std::unique_ptr<StreamSink> stream)
    : sink_(take(std::move(stream))) {}

void TraceRecorder::record(EventKind kind, Time at, sim::NodeId node,
                           sim::NodeId peer, std::uint64_t id, double a,
                           double b, std::int32_t c) {
  TraceEvent e;
  e.at = base_ + at;
  e.seq = next_seq_++;
  e.id = id;
  e.node = node;
  e.peer = peer;
  e.kind = kind;
  e.c = c;
  e.a = a;
  e.b = b;
  last_local_ = at;
  ++recorded_;
  ++kind_counts_[static_cast<int>(kind)];
  std::visit([&e](auto& sink) { sink.push(e); }, sink_);
}

void TraceRecorder::log(LogLevel level, std::string message) {
  LogRecord rec;
  rec.at = base_ + last_local_;
  rec.seq = next_seq_++;
  rec.level = level;
  rec.message = std::move(message);
  ++kind_counts_[static_cast<int>(EventKind::Log)];
  logs_.push_back(std::move(rec));
  if (logs_.size() > kMaxLogRecords) logs_.pop_front();
}

std::size_t TraceRecorder::per_node_capacity() const {
  const auto* rings = std::get_if<RingSink>(&sink_);
  VIFI_EXPECTS(rings != nullptr);
  return rings->per_node_capacity();
}

std::uint64_t TraceRecorder::dropped() const {
  const auto* rings = std::get_if<RingSink>(&sink_);
  return rings != nullptr ? rings->dropped() : 0;
}

const std::string& TraceRecorder::spool_path() const {
  const auto* stream = std::get_if<StreamSink>(&sink_);
  VIFI_EXPECTS(stream != nullptr);
  return stream->path();
}

std::vector<SpoolLog> TraceRecorder::spool_logs() const {
  std::vector<SpoolLog> out;
  out.reserve(logs_.size());
  for (const LogRecord& log : logs_) {
    SpoolLog s;
    s.at_us = log.at.to_micros();
    s.seq = log.seq;
    s.level = static_cast<std::int32_t>(log.level);
    s.message = log.message;
    out.push_back(std::move(s));
  }
  return out;
}

void TraceRecorder::finalize() const {
  const auto* stream = std::get_if<StreamSink>(&sink_);
  if (stream != nullptr && !stream->finalized()) stream->finalize(spool_logs());
}

void TraceRecorder::set_node_label(sim::NodeId node, std::string label) {
  if (auto* stream = std::get_if<StreamSink>(&sink_))
    stream->set_node_label(node, label);
  labels_[node] = std::move(label);
}

const std::string& TraceRecorder::node_label(sim::NodeId node) const {
  static const std::string kEmpty;
  const auto it = labels_.find(node);
  return it == labels_.end() ? kEmpty : it->second;
}

std::vector<sim::NodeId> TraceRecorder::nodes() const {
  std::vector<sim::NodeId> out =
      std::visit([](const auto& sink) { return sink.nodes(); }, sink_);
  for (const auto& [node, label] : labels_) {
    (void)label;
    if (std::find(out.begin(), out.end(), node) == out.end())
      out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const EventRing& TraceRecorder::ring(sim::NodeId node) const {
  static const EventRing kEmpty{1};
  const auto* rings = std::get_if<RingSink>(&sink_);
  return rings != nullptr ? rings->ring(node) : kEmpty;
}

void TraceRecorder::visit(const EventFn& fn) const {
  // Seal a streaming recorder's spool first so its footer carries the
  // routed logs (StreamSink::visit alone would finalize without them).
  finalize();
  std::visit([&fn](const auto& sink) { sink.visit(fn); }, sink_);
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> out;
  visit([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void TraceRecorder::absorb(const TraceRecorder& other, Time offset) {
  VIFI_EXPECTS(streaming() == other.streaming());
  // Sequence numbers continue after everything (events *and* logs) this
  // recorder has issued, exactly as if other's stream had been recorded
  // here next.
  const std::uint64_t seq_offset = next_seq_ - 1;
  // Same kind, checked above: absorb the other recorder's sink of it.
  std::visit(
      [&](auto& sink) {
        using Sink = std::decay_t<decltype(sink)>;
        sink.absorb(std::get<Sink>(other.sink_), offset, seq_offset);
      },
      sink_);
  for (const LogRecord& log : other.logs_) {
    LogRecord shifted = log;
    shifted.at = log.at + offset;
    shifted.seq = log.seq + seq_offset;
    logs_.push_back(std::move(shifted));
    if (logs_.size() > kMaxLogRecords) logs_.pop_front();
  }
  for (const auto& [node, label] : other.labels_) set_node_label(node, label);
  for (int k = 0; k < kEventKindCount; ++k)
    kind_counts_[k] += other.kind_counts_[k];
  recorded_ += other.recorded_;
  next_seq_ += other.next_seq_ - 1;
  // A log stamped after the absorb lands where a direct recording would
  // have put it: offset + other's last local time, relative to our base.
  last_local_ = offset + other.base_ + other.last_local_ - base_;
}

TraceRecorder* current_recorder() { return t_current; }

TraceScope::TraceScope(TraceRecorder& recorder) : prev_(t_current) {
  t_current = &recorder;
}

TraceScope::~TraceScope() { t_current = prev_; }

}  // namespace vifi::obs
