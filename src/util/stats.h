#pragma once

/// \file stats.h
/// Descriptive statistics used throughout the evaluation: running moments,
/// percentiles, medians, and the 95% confidence intervals the paper puts on
/// every error bar.

#include <cstddef>
#include <vector>

namespace vifi {

/// Numerically stable running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// p-th percentile (p in [0,100]) with linear interpolation between order
/// statistics. The input need not be sorted.
double percentile(std::vector<double> values, double p);

/// percentile() of \p values, reordering them in place instead of taking
/// a copy: it selects the two order statistics the percentile interpolates
/// between (nth_element) rather than sorting, with the same result.
double percentile_in_place(std::vector<double>& values, double p);

double median(std::vector<double> values);

/// A two-sided interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  double half_width() const { return (hi - lo) / 2.0; }
};

/// 95% confidence interval for the mean (normal approximation, z = 1.96).
Interval mean_ci95(const std::vector<double>& values);

class Rng;

/// 95% bootstrap percentile interval for the median. Suitable for the
/// session-length medians whose sampling distribution is far from normal.
Interval bootstrap_median_ci95(const std::vector<double>& values, Rng& rng,
                               int resamples = 1000);

}  // namespace vifi
