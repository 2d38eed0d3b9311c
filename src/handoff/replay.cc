#include "handoff/replay.h"

#include <algorithm>

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::handoff {

namespace {

/// The trip second \p slot falls in, clamped to the last of \p seconds
/// (> 0) for slots past the last full second.
std::size_t slot_second(const trace::ProbeSlot& slot, std::size_t seconds) {
  return std::min(static_cast<std::size_t>(slot.t.to_micros() / 1'000'000),
                  seconds - 1);
}

}  // namespace

std::vector<SlotOutcome> replay_hard_handoff(const MeasurementTrace& trip,
                                             HandoffPolicy& policy) {
  const std::vector<NodeId> choices = policy.choose(trip);
  VIFI_ENSURES(static_cast<int>(choices.size()) >= trip.seconds());
  obs::TraceRecorder* rec = obs::current_recorder();
  NodeId last_bs{};
  std::vector<SlotOutcome> outcomes(trip.slots.size());
  for (std::size_t i = 0; i < trip.slots.size(); ++i) {
    const NodeId bs = choices.empty()
                          ? NodeId{}
                          : choices[slot_second(trip.slots[i], choices.size())];
    if (rec && bs != last_bs) {
      rec->record(obs::EventKind::Handoff, trip.slots[i].t, trip.vehicle, bs,
                  i);
      last_bs = bs;
    }
    if (!bs.valid()) continue;
    outcomes[i].up = trip.slots[i].up_to(bs);
    outcomes[i].down = trip.slots[i].down_from(bs);
    if (rec) {
      if (outcomes[i].up)
        rec->record(obs::EventKind::AppDeliver, trip.slots[i].t, bs,
                    trip.vehicle, i, 0.0, 0.0, 0);
      if (outcomes[i].down)
        rec->record(obs::EventKind::AppDeliver, trip.slots[i].t, trip.vehicle,
                    bs, i, 0.0, 0.0, 1);
    }
  }
  return outcomes;
}

std::vector<SlotOutcome> replay_allbses(const MeasurementTrace& trip,
                                        int max_bs) {
  std::vector<SlotOutcome> outcomes(trip.slots.size());
  // Per second, optionally restrict to the k best BSes of that second.
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  std::vector<std::vector<NodeId>> allowed(secs);
  if (max_bs < 0) {
    for (auto& a : allowed) a = trip.bs_ids;
  } else {
    for (std::size_t s = 0; s < secs; ++s) {
      std::vector<std::pair<int, NodeId>> scored;
      for (NodeId bs : trip.bs_ids) {
        int score = 0;
        for (std::size_t i = s * 10;
             i < std::min(trip.slots.size(), (s + 1) * 10); ++i)
          score += (trip.slots[i].down_from(bs) ? 1 : 0) +
                   (trip.slots[i].up_to(bs) ? 1 : 0);
        scored.emplace_back(score, bs);
      }
      std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      for (int k = 0; k < std::min<int>(max_bs, static_cast<int>(scored.size()));
           ++k)
        allowed[s].push_back(scored[static_cast<std::size_t>(k)].second);
    }
  }

  for (std::size_t i = 0; i < trip.slots.size(); ++i) {
    const trace::ProbeSlot& slot = trip.slots[i];
    for (NodeId bs : allowed[slot_second(slot, secs)]) {
      outcomes[i].up = outcomes[i].up || slot.up_to(bs);
      outcomes[i].down = outcomes[i].down || slot.down_from(bs);
    }
  }
  return outcomes;
}

std::int64_t packets_delivered(const std::vector<SlotOutcome>& outcomes) {
  std::int64_t n = 0;
  for (const SlotOutcome& o : outcomes) n += o.delivered();
  return n;
}

}  // namespace vifi::handoff
