#include "obs/recorder.h"

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

TraceRecorder::TraceRecorder()
    : scratch_(std::make_unique<ScratchDir>("vifi_trace")),
      spool_(std::make_unique<SpoolWriter>(scratch_->sub("trace.spool"))) {}

TraceRecorder::TraceRecorder(std::unique_ptr<SpoolWriter> spool)
    : spool_(std::move(spool)) {
  VIFI_EXPECTS(spool_ != nullptr);
}

void TraceRecorder::record(EventKind kind, Time at, sim::NodeId node,
                           sim::NodeId peer, std::uint64_t id, double a,
                           double b, std::int32_t c) {
  VIFI_EXPECTS(kind != EventKind::Log);
  TraceEvent e;
  e.at = base_ + at;
  e.seq = spool_->pushed() + 1;
  e.id = id;
  e.node = node;
  e.peer = peer;
  e.kind = kind;
  e.c = c;
  e.a = a;
  e.b = b;
  spool_->push(e);
}

void TraceRecorder::finalize() const { spool_->finalize(); }

void TraceRecorder::set_node_label(sim::NodeId node, std::string label) {
  spool_->set_node_label(node, label);
  labels_[node] = std::move(label);
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  finalize();
  return SpoolReader(spool_->path()).events();
}

void TraceRecorder::absorb(const TraceRecorder& other, Time offset) {
  // Sequence numbers continue after every event this recorder holds,
  // exactly as if other's stream had been recorded here next. other's
  // spool is sealed and copied in record by record, as encoded; the spool
  // writer counts the copies as it would pushes.
  other.finalize();
  spool_->absorb(SpoolReader(other.spool_path()), offset, spool_->pushed());
  for (const auto& [node, label] : other.labels_) set_node_label(node, label);
}

TraceRecorder* current_recorder() { return t_current; }

TraceScope::TraceScope(TraceRecorder& recorder) : prev_(t_current) {
  t_current = &recorder;
}

TraceScope::~TraceScope() { t_current = prev_; }

}  // namespace vifi::obs
