// vifi_cli — run a configurable experiment from the command line.
//
//   vifi_cli [--testbed vanlan|dieselnet1|dieselnet6]
//            [--protocol vifi|brr|diversity]
//            [--app cbr|voip|tcp]
//            [--duration SECONDS] [--seed N]
//            [--max-aux K] [--inorder] [--variant vifi|g1|g2|g3]
//
// Prints link/application metrics for the chosen combination; every knob
// maps 1:1 onto the public API, so this doubles as executable
// documentation of the configuration space.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "apps/cbr.h"
#include "apps/transfer_driver.h"
#include "apps/voip.h"
#include "cli_args.h"
#include "runtime/executor.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "util/table.h"

using namespace vifi;

namespace {

struct Options {
  std::string testbed = "vanlan";
  std::string protocol = "vifi";
  std::string app = "cbr";
  double duration_s = 0.0;  // 0 = one trip
  std::uint64_t seed = 1;
  int max_aux = -1;
  bool inorder = false;
  std::string variant = "vifi";
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--testbed vanlan|dieselnet1|dieselnet6]"
         " [--protocol vifi|brr|diversity] [--app cbr|voip|tcp]"
         " [--duration SECONDS] [--seed N] [--max-aux K] [--inorder]"
         " [--variant vifi|g1|g2|g3]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--testbed" && next(value)) {
      opt.testbed = value;
    } else if (arg == "--protocol" && next(value)) {
      opt.protocol = value;
    } else if (arg == "--app" && next(value)) {
      opt.app = value;
    } else if (arg == "--duration" && next(value)) {
      opt.duration_s = cli::parse_number(arg, value, 0.0, 1e7);
    } else if (arg == "--seed" && next(value)) {
      opt.seed = cli::parse_number<std::uint64_t>(arg, value);
    } else if (arg == "--max-aux" && next(value)) {
      opt.max_aux = cli::parse_number(arg, value, -1, 1000);
    } else if (arg == "--inorder") {
      opt.inorder = true;
    } else if (arg == "--variant" && next(value)) {
      opt.variant = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool parsed = false;
  try {
    parsed = parse(argc, argv, opt);
  } catch (const cli::BadNumber& e) {
    std::cerr << e.what() << "\n";
  }
  if (!parsed) return usage(argv[0]);

  // Testbed.
  scenario::Testbed bed = [&] {
    if (opt.testbed == "vanlan") return scenario::make_vanlan();
    if (opt.testbed == "dieselnet1") return scenario::make_dieselnet(1);
    if (opt.testbed == "dieselnet6") return scenario::make_dieselnet(6);
    std::cerr << "unknown testbed: " << opt.testbed << "\n";
    std::exit(usage(argv[0]));
  }();

  // Protocol configuration: each spelling names one of the runtime's live
  // policies.
  const std::map<std::string, std::string> protocols{
      {"vifi", "ViFi"}, {"brr", "BRR"}, {"diversity", "Diversity"}};
  const auto protocol = protocols.find(opt.protocol);
  if (protocol == protocols.end()) {
    std::cerr << "unknown protocol: " << opt.protocol << "\n";
    return usage(argv[0]);
  }
  core::SystemConfig config = runtime::live_policy_config(protocol->second);
  config.vifi.max_auxiliaries = opt.max_aux;
  config.vifi.inorder_delivery = opt.inorder;
  if (opt.variant == "g1") config.vifi.variant = core::RelayVariant::NoG1;
  else if (opt.variant == "g2") config.vifi.variant = core::RelayVariant::NoG2;
  else if (opt.variant == "g3") config.vifi.variant = core::RelayVariant::NoG3;
  else if (opt.variant != "vifi") {
    std::cerr << "unknown variant: " << opt.variant << "\n";
    return usage(argv[0]);
  }
  if (opt.app == "cbr") config.vifi.max_retx = 0;  // link-layer experiment

  const Time duration = opt.duration_s > 0.0 ? Time::seconds(opt.duration_s)
                                             : bed.trip_duration();

  std::cout << "testbed=" << bed.layout().name << " protocol=" << opt.protocol
            << " app=" << opt.app << " duration=" << duration.to_string()
            << " seed=" << opt.seed << "\n\n";

  scenario::LiveTrip trip(bed, config, opt.seed);
  trip.run_until(scenario::LiveTrip::warmup());
  const Time end = trip.simulator().now() + duration;

  TextTable table("results");
  table.set_header({"metric", "value"});

  if (opt.app == "cbr") {
    apps::CbrWorkload cbr(trip.simulator(), trip.transport());
    cbr.start(end);
    trip.run_until(end + Time::seconds(1.0));
    const auto lengths = analysis::session_lengths_s(cbr.slot_stream(),
                                                     analysis::SessionDef{});
    table.add_row({"probes sent", std::to_string(cbr.sent())});
    table.add_row({"delivered", std::to_string(cbr.delivered())});
    table.add_row(
        {"delivery rate",
         TextTable::pct(static_cast<double>(cbr.delivered()) /
                        static_cast<double>(std::max<std::int64_t>(
                            1, cbr.sent())))});
    table.add_row({"median session (s)",
                   TextTable::num(analysis::median_session_length(lengths), 1)});
  } else if (opt.app == "voip") {
    apps::VoipCall call(trip.simulator(), trip.transport());
    call.start(end);
    trip.run_until(end + Time::seconds(1.0));
    const auto r = call.result();
    table.add_row({"packets sent", std::to_string(r.packets_sent)});
    table.add_row({"lost or late", TextTable::pct(r.effective_loss(), 1)});
    table.add_row({"mean MoS", TextTable::num(r.mean_mos, 2)});
    table.add_row({"median disruption-free session (s)",
                   TextTable::num(r.median_session_s, 1)});
  } else if (opt.app == "tcp") {
    apps::TransferDriver down(trip.simulator(), trip.transport(),
                              net::Direction::Downstream);
    down.start(end);
    trip.run_until(end + Time::seconds(2.0));
    const auto r = down.result();
    table.add_row({"transfers completed", std::to_string(r.completed)});
    table.add_row({"aborted (10 s stall)", std::to_string(r.aborted)});
    table.add_row({"median transfer (s)",
                   TextTable::num(r.median_transfer_time_s(), 2)});
    table.add_row({"transfers/session",
                   TextTable::num(r.mean_transfers_per_session(), 1)});
    table.add_row({"transfers/second",
                   TextTable::num(r.transfers_per_second(), 3)});
  } else {
    std::cerr << "unknown app: " << opt.app << "\n";
    return usage(argv[0]);
  }

  table.add_row({"anchor switches",
                 std::to_string(trip.system().vehicle().anchor_switches())});
  table.add_row({"packets salvaged",
                 std::to_string(trip.system().stats().salvaged())});
  table.print(std::cout);
  return 0;
}
