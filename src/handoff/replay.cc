#include "handoff/replay.h"

#include <algorithm>

#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::handoff {

namespace {

/// The trip second a slot starting at \p t falls in, clamped to the last
/// of \p seconds (> 0) for slots past the last full second.
std::size_t slot_second(Time t, std::size_t seconds) {
  return std::min(static_cast<std::size_t>(t.to_micros() / 1'000'000),
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
    const Time t = trip.slots.start(i);
    const NodeId bs =
        choices.empty() ? NodeId{} : choices[slot_second(t, choices.size())];
    if (rec && bs != last_bs) {
      rec->record(obs::EventKind::Handoff, t, trip.vehicle, bs, i);
      last_bs = bs;
    }
    if (!bs.valid()) continue;
    outcomes[i].up = trip.slot_up(i, bs);
    outcomes[i].down = trip.slot_down(i, bs);
    if (rec) {
      if (outcomes[i].up)
        rec->record(obs::EventKind::AppDeliver, t, bs, trip.vehicle, i, 0.0,
                    0.0, 0);
      if (outcomes[i].down)
        rec->record(obs::EventKind::AppDeliver, t, trip.vehicle, bs, i, 0.0,
                    0.0, 1);
    }
  }
  return outcomes;
}

std::vector<SlotOutcome> replay_allbses(const MeasurementTrace& trip,
                                        int max_bs) {
  /// The BSes a slot may use: bits where the masks cover them, the rest
  /// (past the 64th BS) listed.
  struct Allowed {
    std::uint64_t bits = 0;
    std::vector<NodeId> rest;

    void add(NodeId bs, const MeasurementTrace& trip) {
      const std::uint64_t b = trip.slot_bit(bs);
      if (b != 0) {
        bits |= b;
      } else {
        rest.push_back(bs);
      }
    }
  };
  // One set for the whole trip, or per second the k best BSes of that
  // second.
  const auto secs = static_cast<std::size_t>(std::max(1, trip.seconds()));
  std::vector<Allowed> allowed(max_bs < 0 ? 1 : secs);
  if (max_bs < 0) {
    for (NodeId bs : trip.bs_ids) allowed[0].add(bs, trip);
  } else {
    for (std::size_t s = 0; s < secs; ++s) {
      std::vector<std::pair<int, NodeId>> scored;
      scored.reserve(trip.bs_ids.size());
      for (NodeId bs : trip.bs_ids)
        scored.emplace_back(trip.slot_successes(s * 10, (s + 1) * 10, bs), bs);
      std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      for (int k = 0; k < std::min<int>(max_bs, static_cast<int>(scored.size()));
           ++k)
        allowed[s].add(scored[static_cast<std::size_t>(k)].second, trip);
    }
  }

  std::vector<SlotOutcome> outcomes(trip.slots.size());
  for (std::size_t i = 0; i < trip.slots.size(); ++i) {
    const Allowed& a =
        allowed[max_bs < 0 ? 0 : slot_second(trip.slots.start(i), secs)];
    outcomes[i].up = (trip.slots.up_bits(i) & a.bits) != 0 ||
                     std::ranges::any_of(a.rest, [&](NodeId bs) {
                       return trip.slot_up(i, bs);
                     });
    outcomes[i].down = (trip.slots.down_bits(i) & a.bits) != 0 ||
                       std::ranges::any_of(a.rest, [&](NodeId bs) {
                         return trip.slot_down(i, bs);
                       });
  }
  return outcomes;
}

std::int64_t packets_delivered(const std::vector<SlotOutcome>& outcomes) {
  std::int64_t n = 0;
  for (const SlotOutcome& o : outcomes) n += o.delivered();
  return n;
}

}  // namespace vifi::handoff
