#include "net/backplane.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::net {

void Backplane::attach(NodeId node, Handler handler) {
  VIFI_EXPECTS(node.valid());
  VIFI_EXPECTS(handler != nullptr);
  handlers_[node] = std::move(handler);
}

Backplane::LinkState& Backplane::link(NodeId a, NodeId b) {
  // Links are directional in state (queueing) but share declared params via
  // canonical declaration order; we store per ordered pair and copy params
  // from the canonical pair on first use.
  const sim::LinkKey key{a, b};
  auto it = links_.find(key);
  if (it == links_.end()) {
    LinkState st;
    st.params = default_;
    // Inherit any canonical (unordered) declaration.
    const sim::LinkKey canon = b < a ? sim::LinkKey{b, a} : key;
    if (const auto cit = links_.find(canon); cit != links_.end())
      st = cit->second;
    st.next_free = Time::zero();
    it = links_.emplace(key, st).first;
  }
  return it->second;
}

void Backplane::set_link(NodeId a, NodeId b, LinkParams params) {
  link(a, b).params = params;
  link(b, a).params = params;
}

void Backplane::set_unreachable(NodeId a, NodeId b) {
  link(a, b).unreachable = true;
  link(b, a).unreachable = true;
}

void Backplane::send(WireMessage msg) {
  VIFI_EXPECTS(msg.from.valid() && msg.to.valid());
  VIFI_EXPECTS(msg.bytes > 0);
  ++sent_;
  bytes_sent_ += static_cast<std::uint64_t>(msg.bytes);
  LinkState& l = link(msg.from, msg.to);
  if (l.unreachable) return;
  if (rng_.bernoulli(l.params.loss)) return;

  const Time now = sim_.now();
  const Time start = std::max(now, l.next_free);
  const Time serialization =
      Time::seconds(static_cast<double>(msg.bytes) * 8.0 / l.params.rate_bps);
  l.next_free = start + serialization;
  const Time deliver_at = l.next_free + l.params.latency;

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
