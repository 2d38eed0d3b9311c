#include "obs/sink.h"

namespace vifi::obs {

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
  // The writer copies other's records as they are, in the order that
  // pushing them one by one would write them.
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
