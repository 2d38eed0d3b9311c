#include "obs/sink.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::obs {

EventRing::EventRing(std::size_t capacity) : capacity_(capacity) {
  VIFI_EXPECTS(capacity > 0);
}

void EventRing::push(const TraceEvent& e) {
  if (events_.size() < capacity_) {
    events_.push_back(e);
    return;
  }
  events_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> EventRing::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  out.insert(out.end(), events_.begin() + static_cast<std::ptrdiff_t>(head_),
             events_.end());
  out.insert(out.end(), events_.begin(),
             events_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

// --- RingSink -------------------------------------------------------------

RingSink::RingSink(std::size_t per_node_capacity)
    : per_node_capacity_(per_node_capacity) {
  VIFI_EXPECTS(per_node_capacity > 0);
}

void RingSink::push(const TraceEvent& e) {
  auto it = rings_.find(e.node);
  if (it == rings_.end())
    it = rings_.emplace(e.node, EventRing(per_node_capacity_)).first;
  it->second.push(e);
}

std::uint64_t RingSink::dropped() const {
  std::uint64_t n = 0;
  for (const auto& [node, ring] : rings_) {
    (void)node;
    n += ring.dropped();
  }
  return n;
}

std::vector<sim::NodeId> RingSink::nodes() const {
  std::vector<sim::NodeId> out;
  out.reserve(rings_.size());
  for (const auto& [node, ring] : rings_) {
    (void)ring;
    out.push_back(node);
  }
  return out;
}

void RingSink::visit(const EventFn& fn) const {
  std::vector<TraceEvent> all;
  for (const auto& [node, ring] : rings_) {
    (void)node;
    const auto events = ring.snapshot();
    all.insert(all.end(), events.begin(), events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  for (const TraceEvent& e : all) fn(e);
}

const EventRing& RingSink::ring(sim::NodeId node) const {
  static const EventRing kEmpty{1};
  const auto it = rings_.find(node);
  return it == rings_.end() ? kEmpty : it->second;
}

void RingSink::absorb(const RingSink& other, Time at_offset,
                      std::uint64_t seq_offset) {
  VIFI_EXPECTS(other.per_node_capacity_ == per_node_capacity_);
  for (const auto& [node, ring] : other.rings_) {
    auto it = rings_.find(node);
    if (it == rings_.end())
      it = rings_.emplace(node, EventRing(per_node_capacity_)).first;
    // Replaying other's *retained* window reproduces the ring a direct
    // recording would hold: the survivors of a ring of capacity C are
    // always a suffix of the pushed stream, and any suffix of the
    // combined stream of length <= C is covered by the retained windows.
    // Only the drop count needs other's own overwrites added back.
    for (const TraceEvent& e : ring.snapshot()) {
      TraceEvent shifted = e;
      shifted.at = e.at + at_offset;
      shifted.seq = e.seq + seq_offset;
      it->second.push(shifted);
    }
    it->second.add_dropped(ring.dropped());
  }
}

// --- StreamSink -----------------------------------------------------------

StreamSink::StreamSink(std::string path, std::size_t block_events)
    : writer_(std::make_unique<SpoolWriter>(std::move(path), block_events)) {}

void StreamSink::push(const TraceEvent& e) { writer_->push(e); }

std::vector<sim::NodeId> StreamSink::nodes() const {
  return writer_->nodes();
}

void StreamSink::visit(const EventFn& fn) const {
  if (!writer_->finalized()) writer_->finalize({});
  SpoolReader(writer_->path()).visit(fn);
}

void StreamSink::absorb(const StreamSink& other, Time at_offset,
                        std::uint64_t seq_offset) {
  // Nothing was overwritten, so the stitched spool holds every event of
  // every trip; the writer copies other's records as they are, in the
  // order that pushing them one by one would write them.
  if (!other.finalized()) other.finalize({});
  writer_->absorb(SpoolReader(other.path()), at_offset, seq_offset);
}

void StreamSink::set_node_label(sim::NodeId node, const std::string& label) {
  writer_->set_node_label(node, label);
}

void StreamSink::finalize(const std::vector<SpoolLog>& logs) const {
  writer_->finalize(logs);
}

}  // namespace vifi::obs
