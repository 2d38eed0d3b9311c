#include "obs/span.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace vifi::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::AnchorTenure:
      return "anchor_tenure";
    case SpanKind::CoordPhase:
      return "coord_phase";
    case SpanKind::Contact:
      return "contact";
  }
  return "?";
}

std::string span_label(const Span& span) {
  if (span.kind == SpanKind::CoordPhase) return "phase:" + span.detail;
  return to_string(span.kind);
}

namespace {

coord::ClientPhase to_phase_of(const TraceEvent& e) {
  return static_cast<coord::ClientPhase>(e.c & 0xF);
}

}  // namespace

void SpanBuilder::add(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::AnchorChange: {
      const auto it = tenures_.find(e.node);
      if (it != tenures_.end()) {
        out_.push_back({SpanKind::AnchorTenure, e.node, it->second.anchor,
                        it->second.begin, e.at, {}});
        tenures_.erase(it);
      }
      if (e.peer.valid()) tenures_[e.node] = {e.peer, e.at};
      break;
    }
    case EventKind::CoordTransition: {
      const auto it = phases_.find(e.node);
      if (it != phases_.end())
        out_.push_back({SpanKind::CoordPhase, e.node, it->second.anchor,
                        it->second.begin, e.at,
                        coord::to_string(it->second.phase)});
      // The stream only shows when phases *change*, so the stretch
      // before a client's first transition has no observable start —
      // tracking begins here.
      phases_[e.node] = {to_phase_of(e), e.peer, e.at};
      break;
    }
    case EventKind::BeaconRx: {
      const std::pair<sim::NodeId, sim::NodeId> key{e.node, e.peer};
      const auto it = contacts_.find(key);
      if (it == contacts_.end()) {
        contacts_[key] = {e.at, e.at};
      } else if (e.at - it->second.last > config_.contact_gap) {
        out_.push_back({SpanKind::Contact, e.node, e.peer, it->second.begin,
                        it->second.last, {}});
        it->second = {e.at, e.at};
      } else {
        it->second.last = e.at;
      }
      break;
    }
    default:
      break;
  }
}

std::vector<Span> SpanBuilder::finish(Time horizon) {
  for (const auto& [node, open] : tenures_)
    out_.push_back(
        {SpanKind::AnchorTenure, node, open.anchor, open.begin, horizon, {}});
  for (const auto& [node, open] : phases_)
    if (open.phase != coord::ClientPhase::Idle)
      out_.push_back({SpanKind::CoordPhase, node, open.anchor, open.begin,
                      horizon, coord::to_string(open.phase)});
  for (const auto& [key, open] : contacts_)
    out_.push_back(
        {SpanKind::Contact, key.first, key.second, open.begin, open.last, {}});

  std::sort(out_.begin(), out_.end(), [](const Span& x, const Span& y) {
    return std::tie(x.begin, x.end, x.node, x.peer, x.kind, x.detail) <
           std::tie(y.begin, y.end, y.node, y.peer, y.kind, y.detail);
  });
  return std::move(out_);
}

std::vector<Span> build_spans(const std::vector<TraceEvent>& events,
                              Time horizon, const SpanConfig& config) {
  SpanBuilder builder(config);
  for (const TraceEvent& e : events) builder.add(e);
  return builder.finish(horizon);
}

}  // namespace vifi::obs
