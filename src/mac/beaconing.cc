#include "mac/beaconing.h"

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::mac {

Beaconing::Beaconing(sim::Simulator& sim, Radio& radio, Rng rng, Time period,
                     Time jitter)
    : sim_(sim), radio_(radio), rng_(rng), period_(period), jitter_(jitter) {
  VIFI_EXPECTS(period > Time::zero());
  VIFI_EXPECTS(!jitter.is_negative() && jitter < period);
}

Beaconing::~Beaconing() { stop(); }

void Beaconing::set_payload_provider(PayloadProvider provider) {
  provider_ = std::move(provider);
}

void Beaconing::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void Beaconing::stop() {
  if (!running_) return;
  sim_.cancel(pending_);
  pending_ = sim::EventId{};
  running_ = false;
}

void Beaconing::arm() {
  const Time delay =
      period_ + Time::micros(rng_.uniform_int(-jitter_.to_micros(),
                                              jitter_.to_micros()));
  pending_ = sim_.schedule(delay, [this] { fire(); });
}

void Beaconing::fire() {
  arm();
  Frame f = radio_.recycled_frame(FrameType::Beacon);
  if (provider_) provider_(f.beacon);
  if (obs::TraceRecorder* rec = obs::current_recorder())
    rec->record(obs::EventKind::BeaconTx, sim_.now(), radio_.self(), {}, sent_,
                0.0, 0.0, f.beacon.from_vehicle ? 1 : 0);
  ++sent_;
  radio_.send(std::move(f));
}

}  // namespace vifi::mac
