#include "obs/recorder.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::obs {

namespace {
thread_local TraceRecorder* t_current = nullptr;
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
    : TraceRecorder(std::make_unique<RingSink>(per_node_capacity)) {}

TraceRecorder::TraceRecorder(std::unique_ptr<TraceSink> sink)
    : per_node_capacity_(1 << 14), sink_(std::move(sink)) {
  VIFI_EXPECTS(sink_ != nullptr);
  ring_ = dynamic_cast<RingSink*>(sink_.get());
  stream_ = dynamic_cast<StreamSink*>(sink_.get());
  if (ring_ != nullptr) per_node_capacity_ = ring_->per_node_capacity();
}

TraceRecorder::~TraceRecorder() = default;

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
  // Devirtualized fast path for the default backend (RingSink is final).
  if (ring_ != nullptr)
    ring_->push(e);
  else
    sink_->push(e);
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

const std::string& TraceRecorder::spool_path() const {
  VIFI_EXPECTS(stream_ != nullptr);
  return stream_->path();
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
  if (stream_ != nullptr && !stream_->finalized())
    stream_->finalize(spool_logs());
}

void TraceRecorder::set_node_label(sim::NodeId node, std::string label) {
  sink_->set_node_label(node, label);
  labels_[node] = std::move(label);
}

const std::string& TraceRecorder::node_label(sim::NodeId node) const {
  static const std::string kEmpty;
  const auto it = labels_.find(node);
  return it == labels_.end() ? kEmpty : it->second;
}

std::vector<sim::NodeId> TraceRecorder::nodes() const {
  std::vector<sim::NodeId> out = sink_->nodes();
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
  return ring_ != nullptr ? ring_->ring(node) : kEmpty;
}

void TraceRecorder::visit(const EventFn& fn) const {
  // Seal a streaming recorder's spool first so its footer carries the
  // routed logs (StreamSink::visit alone would finalize without them).
  finalize();
  sink_->visit(fn);
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  finalize();
  return sink_->events();
}

void TraceRecorder::absorb(const TraceRecorder& other, Time offset) {
  VIFI_EXPECTS(streaming() == other.streaming());
  // Sequence numbers continue after everything (events *and* logs) this
  // recorder has issued, exactly as if other's stream had been recorded
  // here next.
  const std::uint64_t seq_offset = next_seq_ - 1;
  sink_->absorb(*other.sink_, offset, seq_offset);
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
