#include "net/backplane.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::net {

void Backplane::attach(NodeId node, Handler handler) {
  VIFI_EXPECTS(node.valid());
  VIFI_EXPECTS(handler != nullptr);
  handlers_[node] = std::move(handler);
}

void Backplane::send(WireMessage msg) {
  VIFI_EXPECTS(msg.from.valid() && msg.to.valid());
  VIFI_EXPECTS(msg.bytes > 0);
  ++sent_;
  bytes_sent_ += static_cast<std::uint64_t>(msg.bytes);
  Time& next_free = next_free_[sim::LinkKey{msg.from, msg.to}];
  const Time start = std::max(sim_.now(), next_free);
  next_free = start + Time::seconds(static_cast<double>(msg.bytes) * 8.0 /
                                    kRateBps);
  const Time deliver_at = next_free + kLatency;

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  in_flight_[slot] = std::move(msg);
  sim_.schedule_at(deliver_at, [this, slot] { deliver(slot); });
}

void Backplane::deliver(std::uint32_t slot) {
  // Out of the slot before the handler runs: it may send, reusing the slot
  // or growing in_flight_.
  const WireMessage msg = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  const auto it = handlers_.find(msg.to);
  if (it == handlers_.end()) return;  // receiver not attached: dropped
  ++delivered_;
  it->second(msg);
}

}  // namespace vifi::net
