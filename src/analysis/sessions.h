#pragma once

/// \file sessions.h
/// Periods of uninterrupted connectivity (§3.1): a session is a maximal run
/// of consecutive intervals whose reception ratio meets a threshold. The
/// definition is parameterised exactly as in Figs. 4/7 — by the averaging
/// interval and the minimum reception ratio.

#include <string>
#include <vector>

#include "util/cdf.h"
#include "util/time.h"

namespace vifi::analysis {

/// A delivery stream: how many of the workload's packets made it in each
/// fixed-length slot (e.g. 2 per 100 ms slot: one up + one down).
struct SlotStream {
  Time slot = Time::millis(100);
  int per_slot_max = 2;
  std::vector<int> delivered;

  Time duration() const {
    return slot * static_cast<double>(delivered.size());
  }
};

/// Adequate-connectivity definition (Figs. 3, 4, 7).
struct SessionDef {
  Time interval = Time::seconds(1.0);
  double min_ratio = 0.5;
};

/// Reception ratio per averaging interval (partial trailing interval is
/// dropped).
std::vector<double> interval_ratios(const SlotStream& stream,
                                    Time interval);

/// The one run-length rule behind every session metric: the lengths of
/// the maximal runs of consecutive \p values at or above \p threshold,
/// each value adding \p step (> 0) to its run, in input order. A run
/// still open at the end of the input counts.
std::vector<double> run_lengths(const std::vector<double>& values,
                                double threshold, double step);

/// Lengths (seconds) of all sessions in the stream.
std::vector<double> session_lengths_s(const SlotStream& stream,
                                      const SessionDef& def);

/// Builds the Fig. 3(d) CDF: fraction of *connected time* spent in sessions
/// of length <= x. Sessions from many trips can be merged.
Cdf session_time_cdf(const std::vector<double>& lengths);

/// Median of the session-time CDF — the "median session length" metric of
/// Figs. 4 and 7 (time-weighted: the median second of connectivity lives in
/// a session of this length). Returns 0 when there are no sessions.
double median_session_length(const std::vector<double>& lengths);

/// Fig. 3(a–c) / Fig. 8 strips: one character per interval, '#' adequate,
/// '.' interruption while in coverage, ' ' out of coverage (zero
/// reception). Interruption count treats each maximal '.' run inside
/// coverage as one interruption (a "dark circle").
struct Timeline {
  std::string strip;
  int interruptions = 0;
  double adequate_s = 0.0;
};

Timeline connectivity_timeline(const SlotStream& stream,
                               const SessionDef& def);

}  // namespace vifi::analysis
