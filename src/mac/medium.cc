#include "mac/medium.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::mac {

Medium::Medium(sim::Simulator& sim, channel::LossModel& loss,
               MediumParams params)
    : sim_(sim), loss_(loss), params_(std::move(params)) {
  VIFI_EXPECTS(params_.bitrate_bps > 0.0);
  VIFI_EXPECTS(params_.phy_overhead_bytes >= 0);
  if (params_.culling) {
    const SpatialCulling& c = *params_.culling;
    VIFI_EXPECTS(c.position != nullptr);
    VIFI_EXPECTS(c.max_audible_m > 0.0);
    VIFI_EXPECTS(c.margin_m >= 0.0);
    VIFI_EXPECTS(c.cell_m >= 0.0);
    VIFI_EXPECTS(c.refresh > Time::zero());
    const double range = c.max_audible_m + 2.0 * c.margin_m;
    cull_cell_size_ = c.cell_m > 0.0 ? c.cell_m : range / 8.0;
    cull_range_sq_ = range * range;
  }
}

std::int32_t Medium::index_of(NodeId node) const {
  const auto v = static_cast<std::size_t>(node.value());
  return node.valid() && v < port_of_.size() ? port_of_[v] : -1;
}

Medium::Port* Medium::port(NodeId node) {
  const std::int32_t i = index_of(node);
  return i < 0 ? nullptr : &ports_[static_cast<std::size_t>(i)];
}

Medium::Port& Medium::attached(NodeId node) {
  Port* p = port(node);
  VIFI_EXPECTS(p != nullptr);
  return *p;
}

void Medium::attach(NodeId node, FrameSink* sink) {
  VIFI_EXPECTS(node.valid());
  VIFI_EXPECTS(sink != nullptr);
  VIFI_EXPECTS(port(node) == nullptr);
  const auto v = static_cast<std::size_t>(node.value());
  if (v >= port_of_.size()) port_of_.resize(v + 1, -1);
  port_of_[v] = static_cast<std::int32_t>(ports_.size());
  Port& p = ports_.emplace_back();
  p.node = node;
  p.sink = sink;
  if (params_.culling) {
    cull_cell_.emplace_back(0, 0);
    cull_channel_.push_back(params_.culling->channel_of
                                ? params_.culling->channel_of(node)
                                : 0);
  }
  // Every list gains the new node (with culling, once it has a cell).
  receivers_fresh_ = false;
}

void Medium::refresh_receivers(Time now) {
  const SpatialCulling* c = params_.culling ? &*params_.culling : nullptr;
  if (receivers_fresh_ && (c == nullptr || now - cull_refreshed_ < c->refresh))
    return;
  if (c != nullptr) {
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      const mobility::Vec2 p = c->position(ports_[i].node, now);
      cull_cell_[i] = {
          static_cast<std::int32_t>(std::floor(p.x / cull_cell_size_)),
          static_cast<std::int32_t>(std::floor(p.y / cull_cell_size_))};
    }
    cull_refreshed_ = now;
  }
  // The cull test is symmetric, so each pair is tested once. Lists fill
  // from the lower-indexed end of each pair first, which leaves every one
  // in ascending attach order, the order transmit() samples in.
  for (Port& p : ports_) p.receivers.clear();
  for (std::size_t a = 0; a < ports_.size(); ++a)
    for (std::size_t b = a + 1; b < ports_.size(); ++b)
      if (c == nullptr || !culled(a, b)) {
        ports_[a].receivers.push_back(static_cast<std::uint32_t>(b));
        ports_[b].receivers.push_back(static_cast<std::uint32_t>(a));
      }
  receivers_fresh_ = true;
}

bool Medium::culled(std::size_t a, std::size_t b) const {
  if (cull_channel_[a] != cull_channel_[b]) return true;
  // Two points in cells (di, dj) apart are at least
  // hypot(max(0,|di|-1), max(0,|dj|-1)) * cell apart. Cull only when that
  // floor exceeds max_audible + 2*margin: the pair was provably out of
  // audible range at refresh time, and the margin absorbs what both
  // endpoints can have moved since.
  const auto [ax, ay] = cull_cell_[a];
  const auto [bx, by] = cull_cell_[b];
  const double dx =
      std::max(0, std::abs(ax - bx) - 1) * cull_cell_size_;
  const double dy =
      std::max(0, std::abs(ay - by) - 1) * cull_cell_size_;
  return dx * dx + dy * dy > cull_range_sq_;
}

void Medium::set_role(NodeId node, NodeRole role) {
  attached(node).ledger.role = role;
}

void Medium::note_deferral(NodeId node, Time wait) {
  VIFI_EXPECTS(!wait.is_negative());
  attached(node).ledger.deferral_wait += wait;
}

Time Medium::airtime(int mac_bytes) const {
  VIFI_EXPECTS(mac_bytes >= 0);
  const double bits =
      static_cast<double>(mac_bytes + params_.phy_overhead_bytes) * 8.0;
  return Time::seconds(bits / params_.bitrate_bps);
}

Time Medium::transmit(Frame frame) {
  VIFI_EXPECTS(frame.tx.valid());
  const Port* sender = port(frame.tx);
  VIFI_EXPECTS(sender != nullptr);
  const auto tx_idx = static_cast<std::size_t>(sender - ports_.data());
  const int bytes = frame.bytes_on_air();
  VIFI_EXPECTS(bytes <= kMaxFrameBytes);
  const Time now = sim_.now();
  prune(now);

  ActiveTx tx;
  tx.seq = next_seq_++;
  tx.tx = frame.tx;
  tx.start = now;
  tx.end = now + airtime(bytes);
  tx.frame = std::move(frame);

  obs::TraceRecorder* rec = obs::current_recorder();
  if (rec)
    rec->record(obs::EventKind::FrameTx, now, tx.tx, tx.frame.data.hop_dst,
                tx.frame.data.packet_id, (tx.end - tx.start).to_seconds(),
                static_cast<double>(tx.frame.data.attempt),
                static_cast<std::int32_t>(tx.frame.type));

  // Sample decode + audibility per receiver at start-of-frame, one channel
  // evaluation each. Channel coherence over one frame (< 5 ms) is
  // reasonable at vehicular speeds. With spatial culling enabled, provably
  // sub-audibility receivers are off the sender's list and skip the
  // sampling entirely; the survivors keep attach order, so the shared draw
  // sequence stays a deterministic function of positions + schedule.
  refresh_receivers(now);
  for (const std::uint32_t i : ports_[tx_idx].receivers) {
    Port& rx = ports_[i];
    // Sub-threshold links are sampled too: their decode draws are part of
    // the shared draw sequence.
    const channel::Reception r =
        loss_.sample(tx.tx, rx.node, now, params_.audibility_threshold);
    if (r.audible) listen(rx, tx);
    ++rx.ledger.decode_attempts;
    ++decode_attempts_;
    if (r.delivered) {
      tx.decoders.push_back(i);
      // Only a record needs the exact probability. reception_prob is pure
      // at a fixed instant, so asking for it changes no draw.
      if (rec)
        rec->record(obs::EventKind::FrameDecode, now, rx.node, tx.tx,
                    tx.frame.data.packet_id,
                    loss_.reception_prob(tx.tx, rx.node, now), 0.0,
                    static_cast<std::int32_t>(tx.frame.type));
    } else {
      ++rx.ledger.channel_losses;
      ++channel_losses_;
    }
  }

  ++transmissions_;
  const Time held = tx.end - tx.start;
  busy_airtime_ += held;
  Port& self = ports_[tx_idx];
  ++self.ledger.frames_tx;
  self.ledger.tx_airtime += held;
  // A node's own transmission holds the channel for it and destroys its
  // decodes of overlapping frames, exactly as an audible one would.
  listen(self, tx);
  const std::uint64_t seq = tx.seq;
  const Time end = tx.end;
  active_.push_back(std::move(tx));
  sim_.schedule_at(end, [this, seq] { finish(seq); });
  return end - now;
}

void Medium::listen(Port& p, const ActiveTx& tx) {
  // Pruned entries are dead weight; drop them once the oldest one is.
  if (!p.heard.empty() && pruned(p.heard.front().end))
    std::erase_if(p.heard, [this](const Heard& h) { return pruned(h.end); });
  p.heard.push_back({tx.seq, tx.start, tx.end});
  p.latest_end = std::max(p.latest_end, tx.end);
}

void Medium::finish(std::uint64_t seq) {
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), seq,
      [](const ActiveTx& t, std::uint64_t s) { return t.seq < s; });
  VIFI_EXPECTS(it != active_.end() && it->seq == seq);
  // Frame sinks may synchronously transmit (e.g. an ACK), which appends to
  // active_ — a deque, so this record stays put — and tries to prune, which
  // is deferred while delivering_. The record therefore stays addressable
  // (no defensive deep copy of the frame), and transmissions that start
  // during this one still see it for their own collision checks.
  const ActiveTx& tx = *it;
  Port& sender = attached(tx.tx);

  // Resolve collisions against the snapshot of overlapping transmissions
  // before dispatching anything: a decode collides when any other
  // unpruned transmission overlapping this one is audible at (or sent
  // from) the receiver — a scan of that receiver's own index, newest
  // first, where the overlaps are.
  obs::TraceRecorder* rec = obs::current_recorder();
  const Time held = tx.end - tx.start;
  deliver_scratch_.clear();
  for (const std::uint32_t i : tx.decoders) {
    Port& rx = ports_[i];
    const bool collided =
        params_.model_collisions &&
        std::any_of(rx.heard.rbegin(), rx.heard.rend(), [&](const Heard& h) {
          return h.seq != tx.seq && !pruned(h.end) && h.start < tx.end &&
                 tx.start < h.end;
        });
    if (collided) {
      ++collisions_;
      ++sender.ledger.frames_collided;
      ++rx.ledger.collisions_seen;
      rx.ledger.collided_airtime += held;
      if (rec)
        rec->record(obs::EventKind::FrameCollide, sim_.now(), rx.node, tx.tx,
                    tx.frame.data.packet_id, 0.0, 0.0,
                    static_cast<std::int32_t>(tx.frame.type));
    } else {
      ++sender.ledger.frames_delivered;
      ++rx.ledger.frames_received;
      rx.ledger.rx_airtime += held;
      deliver_scratch_.push_back(i);
    }
  }
  delivering_ = true;
  for (const std::uint32_t i : deliver_scratch_) {
    ++deliveries_;
    if (rec)
      rec->record(obs::EventKind::FrameDeliver, sim_.now(), ports_[i].node,
                  tx.tx, tx.frame.data.packet_id, 0.0, 0.0,
                  static_cast<std::int32_t>(tx.frame.type));
    ports_[i].sink->on_frame(tx.frame);
  }
  delivering_ = false;
}

void Medium::prune(Time now) {
  // A finished transmission can only matter to transmissions overlapping
  // it; anything ended more than a max-frame-time ago is irrelevant.
  // Deferred while finish() is dispatching out of active_.
  if (delivering_) return;
  pruned_before_ = std::max(pruned_before_, now - airtime(kMaxFrameBytes));
  while (!active_.empty() && pruned(active_.front().end)) active_.pop_front();
}

std::size_t Medium::active_records() const {
  return static_cast<std::size_t>(std::count_if(
      active_.begin(), active_.end(),
      [this](const ActiveTx& t) { return !pruned(t.end); }));
}

bool Medium::busy_for(NodeId listener, Time now) {
  return busy_until(listener, now) > now;
}

Time Medium::busy_until(NodeId listener, Time now) {
  // Prune here too, so a node that only listens (never transmits) still
  // advances the horizon. Clamped to the simulation clock: a query about a
  // future instant must not evict a still-in-flight record out from under
  // its finish() event.
  prune(std::min(now, sim_.now()));
  // Every pruned record ended before the horizon, so at or after it the
  // latest end ever heard is the latest unpruned one, or is in the past.
  VIFI_EXPECTS(now >= pruned_before_);
  const Port* p = port(listener);
  return p == nullptr ? now : std::max(now, p->latest_end);
}

std::uint64_t Medium::transmissions_from(NodeId node) const {
  const std::int32_t i = index_of(node);
  return i < 0 ? 0 : ports_[static_cast<std::size_t>(i)].ledger.frames_tx;
}

MediumStats Medium::snapshot() const {
  MediumStats s;
  s.busy_airtime = busy_airtime_;
  s.transmissions = transmissions_;
  s.deliveries = deliveries_;
  s.collisions = collisions_;
  s.channel_losses = channel_losses_;
  s.decode_attempts = decode_attempts_;
  for (const Port& p : ports_) s.nodes.emplace(p.node, p.ledger);
  return s;
}

void Medium::publish(obs::MetricsRegistry& registry) const {
  registry.counter("mac.transmissions").add(static_cast<double>(transmissions_));
  registry.counter("mac.deliveries").add(static_cast<double>(deliveries_));
  registry.counter("mac.collisions").add(static_cast<double>(collisions_));
  registry.counter("mac.channel_losses")
      .add(static_cast<double>(channel_losses_));
  registry.counter("mac.decode_attempts")
      .add(static_cast<double>(decode_attempts_));
  registry.counter("mac.busy_airtime_s").add(busy_airtime_.to_seconds());

  // Per-node rows through the ordered snapshot so key insertion order (and
  // with it first-registration cost) is deterministic.
  const MediumStats s = snapshot();
  for (const auto& [node, row] : s.nodes) {
    const obs::Labels labels = {{"node", node.to_string()},
                                {"role", to_string(row.role)}};
    const auto add = [&](const char* name, double v) {
      registry.counter(name, labels).add(v);
    };
    add("mac.frames_tx", static_cast<double>(row.frames_tx));
    add("mac.tx_airtime_s", row.tx_airtime.to_seconds());
    add("mac.frames_delivered", static_cast<double>(row.frames_delivered));
    add("mac.frames_collided", static_cast<double>(row.frames_collided));
    add("mac.frames_received", static_cast<double>(row.frames_received));
    add("mac.rx_airtime_s", row.rx_airtime.to_seconds());
    add("mac.collided_airtime_s", row.collided_airtime.to_seconds());
    add("mac.node_decode_attempts", static_cast<double>(row.decode_attempts));
    add("mac.collisions_seen", static_cast<double>(row.collisions_seen));
    add("mac.node_channel_losses", static_cast<double>(row.channel_losses));
    add("mac.deferral_wait_s", row.deferral_wait.to_seconds());
  }
}

}  // namespace vifi::mac
