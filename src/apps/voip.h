#pragma once

/// \file voip.h
/// The VoIP workload and scorer (§5.3.2): bidirectional G.729 streams
/// (20-byte payload every 20 ms), a fixed delay budget (coding 25 ms,
/// jitter buffer 60 ms, wired 40 ms), per-packet deadline of 52 ms on the
/// wireless segment, 3-second MoS windows, and interruption tracking — an
/// interruption occurs when the window MoS drops below 2.

#include <cstdint>
#include <map>
#include <vector>

#include "apps/mos.h"
#include "apps/transport.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace vifi::apps {

struct VoipParams {
  Time packet_interval = Time::millis(20);
  int payload_bytes = 20;
  VoipDelayBudget budget{};
  Time window = Time::seconds(3.0);
  double interruption_mos = 2.0;
  int flow = 77;
};

/// Result of one VoIP call.
struct VoipResult {
  std::vector<double> window_mos;        ///< MoS per 3 s window.
  std::vector<double> session_lengths_s; ///< Runs of windows with MoS >= 2.
  double mean_mos = 0.0;
  double median_session_s = 0.0;         ///< Time-weighted median.
  std::int64_t packets_sent = 0;
  std::int64_t packets_on_time = 0;
  double effective_loss() const {
    return packets_sent == 0
               ? 0.0
               : 1.0 - static_cast<double>(packets_on_time) / packets_sent;
  }
};

/// Runs a bidirectional VoIP call over the transport for the given
/// duration; call run() after the simulator finishes to collect results.
class VoipCall {
 public:
  VoipCall(sim::Simulator& sim, Transport& transport, VoipParams params = {});

  /// Starts sending; packets flow until \p until.
  void start(Time until);

  /// Scores the call; valid once the simulator has run past `until`.
  VoipResult result() const;

  const VoipParams& params() const { return params_; }

 private:
  void on_tick();
  void on_delivery(const net::PacketRef& p);

  sim::Simulator& sim_;
  Transport& transport_;
  VoipParams params_;
  sim::PeriodicTimer tick_;
  Time until_;
  std::uint64_t next_seq_ = 0;

  struct Sent {
    Time at;
    bool on_time = false;
  };
  /// Keyed by (direction, seq).
  std::map<std::pair<int, std::uint64_t>, Sent> sent_;
};

/// Session lengths (seconds) from a MoS-per-window series: maximal runs of
/// windows with MoS >= threshold (analysis::run_lengths).
std::vector<double> mos_session_lengths(const std::vector<double>& window_mos,
                                        double threshold, double window_s);

}  // namespace vifi::apps
