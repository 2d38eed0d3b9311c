#include "analysis/sessions.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::analysis {

std::vector<double> interval_ratios(const SlotStream& stream,
                                    Time interval) {
  VIFI_EXPECTS(interval >= stream.slot);
  VIFI_EXPECTS(stream.per_slot_max > 0);
  const auto slots_per_interval = static_cast<std::size_t>(
      interval.to_micros() / stream.slot.to_micros());
  VIFI_EXPECTS(slots_per_interval > 0);
  std::vector<double> ratios;
  const std::size_t n = stream.delivered.size() / slots_per_interval;
  ratios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int got = 0;
    for (std::size_t j = 0; j < slots_per_interval; ++j)
      got += stream.delivered[i * slots_per_interval + j];
    ratios.push_back(static_cast<double>(got) /
                     (static_cast<double>(slots_per_interval) *
                      stream.per_slot_max));
  }
  return ratios;
}

std::vector<double> run_lengths(const std::vector<double>& values,
                                double threshold, double step) {
  VIFI_EXPECTS(step > 0.0);
  std::vector<double> lengths;
  double run = 0.0;
  for (const double v : values) {
    if (v >= threshold) {
      run += step;
    } else if (run > 0.0) {
      lengths.push_back(run);
      run = 0.0;
    }
  }
  if (run > 0.0) lengths.push_back(run);
  return lengths;
}

std::vector<double> session_lengths_s(const SlotStream& stream,
                                      const SessionDef& def) {
  return run_lengths(interval_ratios(stream, def.interval), def.min_ratio,
                     def.interval.to_seconds());
}

Cdf session_time_cdf(const std::vector<double>& lengths) {
  Cdf cdf;
  for (double len : lengths) cdf.add(len, len);
  return cdf;
}

double median_session_length(const std::vector<double>& lengths) {
  if (lengths.empty()) return 0.0;
  return session_time_cdf(lengths).quantile(0.5);
}

Timeline connectivity_timeline(const SlotStream& stream,
                               const SessionDef& def) {
  const std::vector<double> ratios = interval_ratios(stream, def.interval);
  Timeline tl;
  tl.strip.reserve(ratios.size());
  bool in_gap = false;
  for (double r : ratios) {
    if (r >= def.min_ratio) {
      tl.strip.push_back('#');
      tl.adequate_s += def.interval.to_seconds();
      in_gap = false;
    } else if (r == 0.0) {
      tl.strip.push_back(' ');
      in_gap = false;
    } else {
      tl.strip.push_back('.');
      if (!in_gap) ++tl.interruptions;
      in_gap = true;
    }
  }
  return tl;
}

}  // namespace vifi::analysis
