#include "core/basestation.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::core {

namespace {
/// Wire overhead of a relayed/forwarded packet beyond its payload.
constexpr int kWireHeaderBytes = 28;
/// Wire size of small control messages (salvage request, register).
constexpr int kControlBytes = 24;
}  // namespace

VifiBasestation::VifiBasestation(sim::Simulator& sim, mac::Radio& radio,
                                 net::Backplane& backplane,
                                 NodeId wired_gateway,
                                 const VifiConfig& config, Rng rng,
                                 VifiStats* stats)
    : sim_(sim),
      radio_(radio),
      backplane_(backplane),
      gateway_(wired_gateway),
      config_(config),
      stats_(stats),
      rng_(rng),
      pab_(radio.self()),
      beaconing_(sim, radio, rng.fork("beacons"), config.beacon_period),
      second_tick_(sim, Time::seconds(1.0), [this] { on_second_tick(); }),
      relay_tick_(sim, config.relay_check_period, [this] { on_relay_tick(); }),
      pump_tick_(sim, Time::millis(50), [this] { pump_all(); }),
      receiver_(sim, radio, config, Direction::Upstream, stats) {
  receiver_.set_release_handler(
      [this](const net::PacketRef& p) { forward_to_gateway(p); });
  radio_.set_receiver([this](const mac::Frame& f) { on_frame(f); });
  radio_.set_idle_callback([this] { pump_all(); });
  beaconing_.set_payload_provider(
      [this](mac::BeaconPayload& p) { beacon_payload(p); });
  backplane_.attach(self(),
                    [this](const net::WireMessage& m) { on_wire(m); });
  if (obs::MetricsRegistry* metrics = obs::current_metrics())
    relay_prob_hist_ = &metrics->histogram(
        "core.relay_probability",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
        {{"node", self().to_string()}});
}

VifiSender& VifiBasestation::sender_for(NodeId vehicle) {
  VIFI_EXPECTS(vehicle.valid());
  auto it = senders_.find(vehicle);
  if (it == senders_.end()) {
    auto sender = std::make_unique<VifiSender>(
        sim_, radio_, config_, self(), Direction::Downstream);
    sender->set_hop_dst_provider([this, vehicle]() -> NodeId {
      return is_anchor_for(vehicle) ? vehicle : NodeId{};
    });
    sender->set_piggyback_provider(
        [this](std::vector<std::uint64_t>& ids) { receiver_.recent_ids(ids); });
    sender->set_designated_aux_provider([this, vehicle] {
      const auto vit = vehicles_.find(vehicle);
      return vit == vehicles_.end()
                 ? 0
                 : static_cast<int>(vit->second.auxiliaries.size());
    });
    sender->set_stats(stats_);
    it = senders_.try_emplace(vehicle, std::move(sender)).first;
  }
  return *it->second;
}

VifiSender& VifiBasestation::sender(NodeId vehicle) {
  return sender_for(vehicle);
}

void VifiBasestation::pump_all() {
  for (auto& [vehicle, sender] : senders_) {
    (void)vehicle;
    sender->pump();
  }
}

void VifiBasestation::start() {
  beaconing_.start();
  second_tick_.start();
  pump_tick_.start();
  if (config_.diversity) {
    // Random phase desynchronises relay timers across BSes (§4.4).
    relay_tick_.start_after(config_.relay_check_period *
                            rng_.uniform(0.1, 1.0));
  }
}

bool VifiBasestation::is_anchor_for(NodeId vehicle) const {
  const auto it = vehicles_.find(vehicle);
  return it != vehicles_.end() && it->second.anchor == self();
}

void VifiBasestation::beacon_payload(mac::BeaconPayload& p) const {
  p.from_vehicle = false;
  pab_.export_reports(sim_.now(), p.prob_reports);
}

void VifiBasestation::on_frame(const mac::Frame& f) {
  const Time now = sim_.now();
  switch (f.type) {
    case mac::FrameType::Beacon:
      if (obs::TraceRecorder* rec = obs::current_recorder())
        rec->record(obs::EventKind::BeaconRx, now, self(), f.tx, 0, 0.0, 0.0,
                    f.beacon.from_vehicle ? 1 : 0);
      pab_.note_beacon(f.tx, now);
      pab_.fold_reports(f.beacon.prob_reports, now);
      if (f.beacon.from_vehicle) on_vehicle_beacon(f);
      break;
    case mac::FrameType::Ack:
      acks_overheard_.insert(f.ack.packet_id);
      for (auto& [vehicle, sender] : senders_) {
        (void)vehicle;
        sender->acknowledge(f.ack.packet_id, now, /*explicit_ack=*/true);
      }
      salvage_buffer_.erase(f.ack.packet_id);
      break;
    case mac::FrameType::Data:
      on_data(f);
      break;
  }
}

void VifiBasestation::on_vehicle_beacon(const mac::Frame& f) {
  VehicleState& st = vehicles_[f.tx];
  const bool was_anchor = st.anchor == self();
  st.anchor = f.beacon.anchor;
  st.prev_anchor = f.beacon.prev_anchor;
  st.auxiliaries = f.beacon.auxiliaries;
  st.last_beacon = sim_.now();
  if (st.anchor == self() && !was_anchor) {
    become_anchor(f.tx, st.prev_anchor);
  } else if (st.anchor != self()) {
    st.registered_as_anchor = false;
  }
  if (beacon_observer_)
    beacon_observer_(f.tx, f.beacon.anchor, f.beacon.prev_anchor);
}

void VifiBasestation::prestage(NodeId vehicle, NodeId current_anchor) {
  VIFI_EXPECTS(vehicle.valid());
  // Warm the downstream path so the first post-handoff packet pays no
  // lazy-construction latency.
  sender_for(vehicle);
  // Pull the current anchor's salvage buffer proactively — the same §4.5
  // exchange become_anchor issues, just ahead of the beacon gap. The reply
  // enqueues here without registering this BS as anchor; if the handoff
  // never happens, the packets simply age out of the salvage buffer.
  if (config_.salvage && current_anchor.valid() && current_anchor != self()) {
    net::WireMessage req;
    req.kind = net::WireMessage::Kind::SalvageRequest;
    req.from = self();
    req.to = current_anchor;
    req.about = vehicle;
    req.bytes = kControlBytes;
    backplane_.send(std::move(req));
  }
}

void VifiBasestation::become_anchor(NodeId vehicle, NodeId prev_anchor) {
  VehicleState& st = vehicles_[vehicle];
  if (!st.registered_as_anchor) {
    st.registered_as_anchor = true;
    net::WireMessage reg;
    reg.kind = net::WireMessage::Kind::AnchorRegister;
    reg.from = self();
    reg.to = gateway_;
    reg.about = vehicle;
    reg.bytes = kControlBytes;
    backplane_.send(std::move(reg));
  }
  if (config_.salvage && prev_anchor.valid() && prev_anchor != self()) {
    if (obs::TraceRecorder* rec = obs::current_recorder())
      rec->record(obs::EventKind::SalvageRequest, sim_.now(), self(),
                  prev_anchor, 0, 0.0, 0.0, vehicle.value());
    net::WireMessage req;
    req.kind = net::WireMessage::Kind::SalvageRequest;
    req.from = self();
    req.to = prev_anchor;
    req.about = vehicle;
    req.bytes = kControlBytes;
    backplane_.send(std::move(req));
  }
  sender_for(vehicle).pump();
}

void VifiBasestation::on_data(const mac::Frame& f) {
  if (f.data.hop_dst == self()) {
    // We are the wireless-hop destination: upstream data from the vehicle.
    for (std::uint64_t id : f.data.piggyback_acked) {
      for (auto& [vehicle, sender] : senders_) {
        (void)vehicle;
        sender->acknowledge(id, sim_.now(), /*explicit_ack=*/false);
      }
      salvage_buffer_.erase(id);
    }
    receiver_.accept({.packet = f.packet, .attempt = f.data.attempt,
                      .relayed = f.data.is_relay, .peer = f.data.relayer});
    return;
  }

  // Auxiliary path: consider overheard frames for relaying (§4.3 step 3).
  if (!config_.diversity) return;
  if (f.data.is_relay) return;  // relays of relays are forbidden
  if (relay_considered_.contains(f.data.packet_id)) return;

  // Identify the vehicle this packet concerns.
  NodeId vehicle{};
  if (vehicles_.contains(f.data.origin)) {
    vehicle = f.data.origin;  // upstream
  } else if (vehicles_.contains(f.data.hop_dst)) {
    vehicle = f.data.hop_dst;  // downstream
  } else {
    return;  // not a ViFi client we know about
  }
  const VehicleState& st = vehicles_.find(vehicle)->second;
  // Only BSes the vehicle designated act as auxiliaries (§4.3).
  if (std::find(st.auxiliaries.begin(), st.auxiliaries.end(), self()) ==
      st.auxiliaries.end())
    return;

  if (stats_)
    stats_->on_aux_overhear(f.data.packet_id, f.data.attempt, self());
  // Buffer only once per packet.
  for (const OverheardEntry& e : overheard_)
    if (e.packet_id == f.data.packet_id) return;
  overheard_.push_back({.packet = f.packet,
                        .packet_id = f.data.packet_id,
                        .attempt = f.data.attempt,
                        .origin = f.data.origin,
                        .hop_dst = f.data.hop_dst,
                        .heard_at = sim_.now(),
                        .vehicle = vehicle});
}

void VifiBasestation::forward_to_gateway(const net::PacketRef& packet) {
  net::WireMessage fwd;
  fwd.kind = net::WireMessage::Kind::Data;
  fwd.from = self();
  fwd.to = gateway_;
  fwd.packet = packet;
  fwd.bytes = packet->bytes + kWireHeaderBytes;
  backplane_.send(std::move(fwd));
}

void VifiBasestation::enqueue_downstream(const net::PacketRef& packet) {
  salvage_buffer_[packet->id] = {packet, sim_.now()};
  sender_for(packet->dst).enqueue(packet);
}

void VifiBasestation::on_wire(const net::WireMessage& msg) {
  switch (msg.kind) {
    case net::WireMessage::Kind::Data:
      VIFI_EXPECTS(msg.packet != nullptr);
      enqueue_downstream(msg.packet);
      break;
    case net::WireMessage::Kind::RelayedData:
      VIFI_EXPECTS(msg.packet != nullptr);
      receiver_.accept({.packet = msg.packet, .attempt = msg.attempt,
                        .relayed = true, .peer = msg.from});
      break;
    case net::WireMessage::Kind::SalvageRequest: {
      // Hand over unacknowledged recent Internet packets destined for the
      // vehicle in question (§4.5).
      obs::TraceRecorder* rec = obs::current_recorder();
      const Time cutoff = sim_.now() - config_.salvage_window;
      const auto moves = [&](const auto& kv) {
        return kv.second.arrived >= cutoff &&
               kv.second.packet->dst == msg.about;
      };
      for (const auto& kv : salvage_buffer_) {
        if (!moves(kv)) continue;
        const auto& [id, entry] = kv;
        net::WireMessage reply;
        reply.kind = net::WireMessage::Kind::SalvageReply;
        reply.from = self();
        reply.to = msg.from;
        reply.packet = entry.packet;
        reply.bytes = entry.packet->bytes + kWireHeaderBytes;
        backplane_.send(std::move(reply));
        if (rec)
          rec->record(obs::EventKind::SalvageHandoff, sim_.now(), self(),
                      msg.from, id, 0.0, 0.0, msg.about.value());
        ++salvaged_out_;
      }
      salvage_buffer_.erase_if(moves);
      break;
    }
    case net::WireMessage::Kind::SalvageReply:
      VIFI_EXPECTS(msg.packet != nullptr);
      if (stats_) stats_->on_salvaged();
      if (obs::TraceRecorder* rec = obs::current_recorder())
        rec->record(obs::EventKind::SalvageDeliver, sim_.now(), self(),
                    msg.from, msg.packet->id, 0.0, 0.0,
                    msg.packet->dst.value());
      // Treat as if it arrived from the Internet (§4.5).
      enqueue_downstream(msg.packet);
      break;
    case net::WireMessage::Kind::AnchorRegister:
      break;  // gateway-only message; ignore
  }
}

void VifiBasestation::on_relay_tick() {
  const Time now = sim_.now();
  obs::TraceRecorder* rec = obs::current_recorder();
  // Entries still inside their ack wait move down over the decided ones,
  // keeping arrival order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < overheard_.size(); ++i) {
    OverheardEntry& e = overheard_[i];
    if (e.heard_at + config_.ack_wait > now) {
      if (kept != i) overheard_[kept] = std::move(e);
      ++kept;
      continue;
    }
    const std::uint64_t id = e.packet_id;
    relay_considered_.insert(id);  // considered at most once (§4.3)
    if (acks_overheard_.contains(id)) continue;  // suppressed

    const auto vit = vehicles_.find(e.vehicle);
    if (vit == vehicles_.end()) continue;
    const VehicleState& st = vit->second;
    const Direction dir =
        e.origin == e.vehicle ? Direction::Upstream : Direction::Downstream;
    const NodeId dst = dir == Direction::Upstream ? st.anchor : e.hop_dst;
    if (!dst.valid()) continue;
    // CoordTier seam: a confident live prediction suppresses redundant
    // auxiliary relays (the packet is considered, then skipped).
    if (relay_filter_ && relay_filter_(e.vehicle)) continue;

    if (stats_) stats_->on_aux_contend(id, e.attempt, self());

    relay_ctx_.self = self();
    relay_ctx_.src = e.origin;
    relay_ctx_.dst = dst;
    relay_ctx_.auxiliaries = st.auxiliaries;
    relay_ctx_.pab = &pab_;
    relay_ctx_.now = now;
    const double p = relay_probability(relay_ctx_, config_.variant);
    if (relay_prob_hist_) relay_prob_hist_->observe(p);
    const bool chose_relay = rng_.bernoulli(p);
    if (rec)
      rec->record(obs::EventKind::RelayEval, now, self(), dst, id, p,
                  chose_relay ? 1.0 : 0.0,
                  static_cast<std::int32_t>(st.auxiliaries.size()));
    if (!chose_relay) continue;

    ++relays_sent_;
    if (stats_) stats_->on_aux_relay(id, e.attempt, self());
    if (dir == Direction::Upstream) {
      // Relay over the inter-BS backplane (§4.3).
      if (rec)
        rec->record(obs::EventKind::RelayTx, now, self(), dst, id, p, 0.0, 0);
      net::WireMessage relay;
      relay.kind = net::WireMessage::Kind::RelayedData;
      relay.from = self();
      relay.to = dst;
      relay.packet = e.packet;
      relay.attempt = e.attempt;
      relay.bytes = e.packet->bytes + kWireHeaderBytes;
      backplane_.send(std::move(relay));
    } else {
      // Relay on the vehicle-BS channel: the overheard frame again, marked
      // as a relay and without its piggybacked acks.
      if (rec)
        rec->record(obs::EventKind::RelayTx, now, self(), dst, id, p, 0.0, 1);
      mac::Frame relay = radio_.recycled_frame(mac::FrameType::Data);
      relay.packet = e.packet;
      relay.data.packet_id = id;
      relay.data.attempt = e.attempt;
      relay.data.origin = e.origin;
      relay.data.hop_dst = e.hop_dst;
      relay.data.is_relay = true;
      relay.data.relayer = self();
      if (stats_) stats_->on_wireless_data_tx(Direction::Downstream);
      radio_.send(std::move(relay));
    }
  }
  overheard_.resize(kept);
}

void VifiBasestation::on_second_tick() {
  const Time now = sim_.now();
  pab_.tick_second(now);
  // Drop state for vehicles not heard from in a long time.
  vehicles_.erase_if([now](const auto& kv) {
    return (now - kv.second.last_beacon) > Time::seconds(10.0);
  });
  // Salvage buffer pruning: entries too old to ever be salvaged.
  const Time cutoff = now - config_.salvage_window * 5.0;
  salvage_buffer_.erase_if(
      [cutoff](const auto& kv) { return kv.second.arrived < cutoff; });
}

}  // namespace vifi::core
