// VoIP from a moving shuttle: place a G.729 call over ViFi and over the
// BRR hard-handoff baseline for the same trip, and compare call quality —
// per-window MoS timeline, interruptions, and disruption-free session
// lengths (the paper's §5.3.2 methodology).

#include <iostream>

#include "apps/voip.h"
#include "runtime/executor.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "util/table.h"

using namespace vifi;

namespace {

apps::VoipResult drive_and_talk(const scenario::Testbed& bed,
                                core::SystemConfig config,
                                std::uint64_t seed) {
  scenario::LiveTrip trip(bed, config, seed);
  trip.run_until(scenario::LiveTrip::warmup());
  apps::VoipCall call(trip.simulator(), trip.transport());
  const Time end = trip.simulator().now() + bed.trip_duration();
  call.start(end);
  trip.run_until(end + Time::seconds(1.0));
  return call.result();
}

std::string mos_strip(const std::vector<double>& window_mos) {
  // One character per 3 s window: '*' great, '+' fair, '-' annoying,
  // '!' interruption (MoS < 2).
  std::string s;
  for (double m : window_mos) {
    if (m >= 4.0)
      s += '*';
    else if (m >= 3.0)
      s += '+';
    else if (m >= 2.0)
      s += '-';
    else
      s += '!';
  }
  return s;
}

}  // namespace

int main() {
  const scenario::Testbed bed = scenario::make_vanlan();
  const std::uint64_t seed = 7;

  const apps::VoipResult with_vifi =
      drive_and_talk(bed, runtime::live_policy_config("ViFi"), seed);
  const apps::VoipResult with_brr =
      drive_and_talk(bed, runtime::live_policy_config("BRR"), seed);

  std::cout << "Call quality timeline, one char per 3 s window "
               "('*'>=4, '+'>=3, '-'>=2, '!'=interruption):\n\n";
  std::cout << "ViFi " << mos_strip(with_vifi.window_mos) << "\n";
  std::cout << "BRR  " << mos_strip(with_brr.window_mos) << "\n\n";

  TextTable table("One shuttle trip, same channel realisation");
  table.set_header({"metric", "ViFi", "BRR"});
  auto interruptions = [](const apps::VoipResult& r) {
    int n = 0;
    for (double m : r.window_mos)
      if (m < 2.0) ++n;
    return n;
  };
  table.add_row({"mean MoS", TextTable::num(with_vifi.mean_mos, 2),
                 TextTable::num(with_brr.mean_mos, 2)});
  table.add_row({"median disruption-free session (s)",
                 TextTable::num(with_vifi.median_session_s, 0),
                 TextTable::num(with_brr.median_session_s, 0)});
  table.add_row({"interrupted windows",
                 std::to_string(interruptions(with_vifi)),
                 std::to_string(interruptions(with_brr))});
  table.add_row({"packets lost or late",
                 TextTable::pct(with_vifi.effective_loss(), 1),
                 TextTable::pct(with_brr.effective_loss(), 1)});
  table.print(std::cout);
  return 0;
}
