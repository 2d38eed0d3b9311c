#include "core/vehicle.h"

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::core {

VifiVehicle::VifiVehicle(sim::Simulator& sim, mac::Radio& radio,
                         const VifiConfig& config, Rng rng, VifiStats* stats)
    : sim_(sim),
      radio_(radio),
      config_(config),
      stats_(stats),
      pab_(radio.self()),
      beaconing_(sim, radio, rng.fork("beacons"), config.beacon_period),
      second_tick_(sim, Time::seconds(1.0), [this] { on_second_tick(); }),
      pump_tick_(sim, Time::millis(50), [this] { sender_.pump(); }),
      sender_(sim, radio, config, radio.self(), Direction::Upstream),
      receiver_(sim, radio, config, Direction::Downstream, stats) {
  radio_.set_receiver([this](const mac::Frame& f) { on_frame(f); });
  radio_.set_idle_callback([this] { sender_.pump(); });
  beaconing_.set_payload_provider(
      [this](mac::BeaconPayload& p) { beacon_payload(p); });
  sender_.set_hop_dst_provider([this] { return anchor_; });
  sender_.set_piggyback_provider(
      [this](std::vector<std::uint64_t>& ids) { receiver_.recent_ids(ids); });
  sender_.set_designated_aux_provider([this] { return auxiliary_count(); });
  sender_.set_stats(stats);
}

void VifiVehicle::start() {
  beaconing_.start();
  second_tick_.start();
  pump_tick_.start();
}

void VifiVehicle::send_up(net::PacketRef packet) {
  VIFI_EXPECTS(packet != nullptr);
  VIFI_EXPECTS(packet->dir == Direction::Upstream);
  sender_.enqueue(std::move(packet));
}

void VifiVehicle::set_delivery_handler(
    std::function<void(const net::PacketRef&)> fn) {
  receiver_.set_release_handler(std::move(fn));
}

std::vector<NodeId> VifiVehicle::auxiliaries() const {
  std::vector<NodeId> aux;
  auxiliaries(aux);
  return aux;
}

void VifiVehicle::auxiliaries(std::vector<NodeId>& aux) const {
  // "We currently pick all BSes that the vehicle hears as auxiliaries"
  // (§4.3), minus the anchor.
  aux.clear();
  pab_.for_each_recent_neighbor(sim_.now(), config_.neighbor_staleness,
                                [&](NodeId bs) {
                                  if (bs != anchor_) aux.push_back(bs);
                                });
}

int VifiVehicle::auxiliary_count() const {
  int n = 0;
  pab_.for_each_recent_neighbor(sim_.now(), config_.neighbor_staleness,
                                [&](NodeId bs) {
                                  if (bs != anchor_) ++n;
                                });
  return n;
}

void VifiVehicle::on_second_tick() {
  pab_.tick_second(sim_.now());
  select_anchor();
  if (obs::TraceRecorder* rec = obs::current_recorder()) {
    const int aux_count = auxiliary_count();
    if (aux_count != last_aux_count_) {
      rec->record(obs::EventKind::AuxSetChange, sim_.now(), self(), anchor_, 0,
                  0.0, 0.0, aux_count);
      last_aux_count_ = aux_count;
    }
  }
  sender_.pump();
}

void VifiVehicle::select_anchor() {
  // BRR anchor selection (§4.3) with hysteresis against flapping.
  const Time now = sim_.now();
  NodeId best{};
  double best_score = 0.0;
  bool anchor_stale = true;  // until found among the recent neighbours
  pab_.for_each_recent_neighbor(now, config_.neighbor_staleness,
                                [&](NodeId bs) {
                                  if (bs == anchor_) anchor_stale = false;
                                  const double score = pab_.incoming(bs, now);
                                  if (score > best_score) {
                                    best_score = score;
                                    best = bs;
                                  }
                                });
  obs::TraceRecorder* rec = obs::current_recorder();
  if (!best.valid()) {
    if (anchor_.valid()) {
      // Current anchor has gone stale with no replacement in sight.
      if (anchor_stale) {
        prev_anchor_ = anchor_;
        anchor_ = NodeId{};
        if (rec)
          rec->record(obs::EventKind::AnchorChange, now, self(), NodeId{},
                      anchor_switches_);
      }
    }
    return;
  }
  if (!anchor_.valid()) {
    prev_anchor_ = anchor_;
    anchor_ = best;
    ++anchor_switches_;
    if (rec)
      rec->record(obs::EventKind::AnchorChange, now, self(), anchor_,
                  anchor_switches_, best_score);
    return;
  }
  if (best == anchor_) return;
  const double current_score = pab_.incoming(anchor_, now);
  if (anchor_stale ||
      best_score > current_score * (1.0 + config_.anchor_hysteresis)) {
    prev_anchor_ = anchor_;
    anchor_ = best;
    ++anchor_switches_;
    if (rec)
      rec->record(obs::EventKind::AnchorChange, now, self(), anchor_,
                  anchor_switches_, best_score);
  }
}

void VifiVehicle::beacon_payload(mac::BeaconPayload& p) const {
  p.from_vehicle = true;
  p.anchor = anchor_;
  p.prev_anchor = prev_anchor_;
  auxiliaries(p.auxiliaries);
  pab_.export_reports(sim_.now(), p.prob_reports);
}

void VifiVehicle::on_frame(const mac::Frame& f) {
  const Time now = sim_.now();
  switch (f.type) {
    case mac::FrameType::Beacon:
      // Another vehicle's beacon is not a BS: it must never enter the
      // neighbor set anchor/auxiliary selection draws from (§4.3). With a
      // fleet on one medium a vehicle would otherwise anchor on a passing
      // vehicle and starve. Its gossiped reports still fold, though only
      // this vehicle's own row: nothing here reads the others.
      if (obs::TraceRecorder* rec = obs::current_recorder())
        rec->record(obs::EventKind::BeaconRx, now, self(), f.tx, 0, 0.0, 0.0,
                    f.beacon.from_vehicle ? 1 : 0);
      if (!f.beacon.from_vehicle) pab_.note_beacon(f.tx, now);
      pab_.fold_own_reports(f.beacon.prob_reports, now);
      break;
    case mac::FrameType::Ack:
      sender_.acknowledge(f.ack.packet_id, now, /*explicit_ack=*/true);
      break;
    case mac::FrameType::Data:
      on_data(f);
      break;
  }
}

void VifiVehicle::on_data(const mac::Frame& f) {
  if (f.data.hop_dst != self()) return;  // overheard someone else's data

  // Piggybacked reverse-path acknowledgments (§4.8).
  for (std::uint64_t id : f.data.piggyback_acked)
    sender_.acknowledge(id, sim_.now(), /*explicit_ack=*/false);

  const bool is_new =
      receiver_.accept({.packet = f.packet, .attempt = f.data.attempt,
                        .relayed = f.data.is_relay, .peer = f.tx});
  if (is_new && stats_) stats_->on_app_delivered(Direction::Downstream);
}

}  // namespace vifi::core
