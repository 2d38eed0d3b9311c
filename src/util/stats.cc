#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"
#include "util/rng.h"

namespace vifi {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  VIFI_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  VIFI_EXPECTS(n_ > 0);
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  VIFI_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  VIFI_EXPECTS(n_ > 0);
  return max_;
}

double percentile(std::vector<double> values, double p) {
  return percentile_in_place(values, p);
}

double percentile_in_place(std::vector<double>& values, double p) {
  VIFI_EXPECTS(!values.empty());
  VIFI_EXPECTS(p >= 0.0 && p <= 100.0);
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  // The lo-th order statistic in place, every larger value after it, so
  // the next one up is the least of those.
  const auto at_lo = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at_lo, values.end());
  const double hi =
      lo + 1 < values.size() ? *std::min_element(at_lo + 1, values.end())
                             : *at_lo;
  const double frac = rank - static_cast<double>(lo);
  return *at_lo + frac * (hi - *at_lo);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Interval mean_ci95(const std::vector<double>& values) {
  VIFI_EXPECTS(!values.empty());
  RunningStats s;
  for (double v : values) s.add(v);
  const double half =
      1.96 * s.stddev() / std::sqrt(static_cast<double>(values.size()));
  return {s.mean() - half, s.mean() + half};
}

Interval bootstrap_median_ci95(const std::vector<double>& values, Rng& rng,
                               int resamples) {
  VIFI_EXPECTS(!values.empty());
  VIFI_EXPECTS(resamples > 1);
  const auto n = static_cast<std::int64_t>(values.size());
  std::vector<double> medians;
  medians.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> draw(values.size());
  for (int r = 0; r < resamples; ++r) {
    for (auto& d : draw)
      d = values[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    medians.push_back(median(draw));
  }
  return {percentile(medians, 2.5), percentile(medians, 97.5)};
}

}  // namespace vifi
