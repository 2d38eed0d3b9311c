#include "coord/manager.h"

#include "core/system.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::coord {

namespace {

/// Packs a transition into TraceEvent::c: event in bits 8+, phases in two
/// nibbles (kClientPhaseCount = 5 fits in 4 bits).
std::int32_t pack_transition(CoordEvent event, ClientPhase from,
                             ClientPhase to) {
  return (static_cast<std::int32_t>(event) << 8) |
         (static_cast<std::int32_t>(from) << 4) |
         static_cast<std::int32_t>(to);
}

}  // namespace

ConnectivityManager::ConnectivityManager(sim::Simulator& sim,
                                         core::CoordParams params)
    : sim_(sim),
      params_(std::move(params)),
      tick_timer_(sim, Time::seconds(1.0), [this] { tick(sim_.now()); }) {
  predictor_.seed(params_.history);
}

void ConnectivityManager::start() { tick_timer_.start(); }

ClientPhase ConnectivityManager::fire(NodeId vehicle, ClientState& st,
                                      CoordEvent event) {
  const ClientPhase from = st.machine.phase();
  const ClientPhase to = st.machine.fire(event);
  ++transitions_;
  if (obs::TraceRecorder* rec = obs::current_recorder())
    rec->record(obs::EventKind::CoordTransition, sim_.now(), vehicle,
                st.anchor, st.machine.transitions(), st.confidence, 0.0,
                pack_transition(event, from, to));
  return to;
}

void ConnectivityManager::clear_prediction(ClientState& st) {
  st.predicted = NodeId{};
  st.confidence = 0.0;
}

void ConnectivityManager::maybe_predict(NodeId vehicle, ClientState& st) {
  if (st.machine.phase() != ClientPhase::Associated) return;
  VIFI_EXPECTS(st.anchor.valid());
  const auto p = predictor_.predict(st.anchor, params_.min_confidence,
                                    params_.min_history);
  if (!p.has_value() || p->bs == st.anchor) return;
  st.predicted = p->bs;
  st.confidence = p->confidence;
  ++predictions_;
  fire(vehicle, st, CoordEvent::PredictionMade);
  ++prestages_;
  if (obs::TraceRecorder* rec = obs::current_recorder())
    rec->record(obs::EventKind::CoordPrestage, sim_.now(), vehicle,
                st.predicted, 0, st.confidence);
  if (prestage_handler_) prestage_handler_(vehicle, st.predicted, st.anchor);
}

void ConnectivityManager::on_beacon(NodeId observer, NodeId vehicle,
                                    NodeId anchor, NodeId prev_anchor) {
  (void)observer;
  (void)prev_anchor;
  VIFI_EXPECTS(vehicle.valid());
  const Time now = sim_.now();
  ClientState& st = clients_[vehicle];
  // Every BS in range decodes the same beacon at the same instant; the
  // first observation carries all its information.
  if (st.seen_once && st.last_seen == now &&
      st.machine.phase() != ClientPhase::Idle)
    return;
  st.seen_once = true;
  st.last_seen = now;
  fire(vehicle, st, CoordEvent::BeaconSeen);

  if (!anchor.valid()) {
    // A beacon with no designation: loss-driven fallback for clients that
    // had one, nothing extra for clients still discovering.
    if (st.anchor.valid()) {
      clear_prediction(st);
      fire(vehicle, st, CoordEvent::AnchorLost);
      st.anchor = NodeId{};
    }
    return;
  }

  const ClientPhase phase = st.machine.phase();
  if (!st.anchor.valid()) {
    // First designation.
    st.anchor = anchor;
    fire(vehicle, st, CoordEvent::AnchorConfirmed);
  } else if (anchor == st.anchor) {
    // Same anchor: HandedOff settles back into Associated on the next
    // confirmation; the associated phases treat it as steady state.
    if (phase == ClientPhase::HandedOff)
      fire(vehicle, st, CoordEvent::AnchorConfirmed);
  } else {
    // Anchor switch: judge a live prediction, learn the succession.
    predictor_.observe(st.anchor, anchor);
    if (phase == ClientPhase::PredictedHandoff) {
      if (anchor == st.predicted) {
        ++hits_;
        st.anchor = anchor;
        // The transition event still carries the window's confidence;
        // the window itself ends with the observed handoff.
        fire(vehicle, st, CoordEvent::HandoffObserved);
        clear_prediction(st);
      } else {
        ++misses_;
        clear_prediction(st);
        st.anchor = anchor;
        fire(vehicle, st, CoordEvent::PredictionMiss);
      }
    } else {
      st.anchor = anchor;
      fire(vehicle, st, CoordEvent::AnchorConfirmed);
    }
  }
  maybe_predict(vehicle, st);
}

void ConnectivityManager::tick(Time now) {
  for (auto& [vehicle, st] : clients_) {
    if (st.machine.phase() == ClientPhase::Idle) continue;
    if (now - st.last_seen <= params_.beacon_timeout) continue;
    clear_prediction(st);
    st.anchor = NodeId{};
    fire(vehicle, st, CoordEvent::Timeout);
  }
}

bool ConnectivityManager::suppress_relay(NodeId aux, NodeId vehicle) {
  const auto it = clients_.find(vehicle);
  if (it == clients_.end()) return false;
  const ClientState& st = it->second;
  if (st.machine.phase() != ClientPhase::PredictedHandoff) return false;
  if (st.confidence < params_.min_confidence) return false;
  if (aux == st.anchor || aux == st.predicted) return false;
  ++suppressed_;
  if (obs::TraceRecorder* rec = obs::current_recorder())
    rec->record(obs::EventKind::CoordSuppress, sim_.now(), vehicle, aux, 0,
                st.confidence);
  return true;
}

ClientPhase ConnectivityManager::phase(NodeId vehicle) const {
  const auto it = clients_.find(vehicle);
  return it == clients_.end() ? ClientPhase::Idle : it->second.machine.phase();
}

NodeId ConnectivityManager::anchor(NodeId vehicle) const {
  const auto it = clients_.find(vehicle);
  return it == clients_.end() ? NodeId{} : it->second.anchor;
}

NodeId ConnectivityManager::predicted(NodeId vehicle) const {
  const auto it = clients_.find(vehicle);
  return it == clients_.end() ? NodeId{} : it->second.predicted;
}

double ConnectivityManager::confidence(NodeId vehicle) const {
  const auto it = clients_.find(vehicle);
  return it == clients_.end() ? 0.0 : it->second.confidence;
}

void ConnectivityManager::publish(obs::MetricsRegistry& registry) const {
  registry.counter("coord.transitions").add(static_cast<double>(transitions_));
  registry.counter("coord.predictions").add(static_cast<double>(predictions_));
  registry.counter("coord.prediction_hits").add(static_cast<double>(hits_));
  registry.counter("coord.prediction_misses")
      .add(static_cast<double>(misses_));
  registry.counter("coord.prestages").add(static_cast<double>(prestages_));
  registry.counter("coord.suppressed_relays")
      .add(static_cast<double>(suppressed_));
}

void attach(core::VifiSystem& system, ConnectivityManager& manager) {
  for (const NodeId bs : system.bs_ids()) {
    core::VifiBasestation& station = system.basestation(bs);
    station.set_beacon_observer(
        [&manager, bs](NodeId vehicle, NodeId anchor, NodeId prev_anchor) {
          manager.on_beacon(bs, vehicle, anchor, prev_anchor);
        });
    station.set_relay_filter([&manager, bs](NodeId vehicle) {
      return manager.suppress_relay(bs, vehicle);
    });
  }
  manager.set_prestage_handler(
      [&system](NodeId vehicle, NodeId predicted, NodeId anchor) {
        system.basestation(predicted).prestage(vehicle, anchor);
      });
}

}  // namespace vifi::coord
