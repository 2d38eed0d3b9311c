// Unit tests for the util library: time, rng, stats, cdf, ewma, tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/cdf.h"
#include "util/contracts.h"
#include "util/ewma.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace vifi {
namespace {

// ----------------------------------------------------------------- Time --

TEST(Time, ConstructionAndConversion) {
  EXPECT_EQ(Time::seconds(1.5).to_micros(), 1'500'000);
  EXPECT_EQ(Time::millis(2.0).to_micros(), 2'000);
  EXPECT_EQ(Time::micros(7).to_micros(), 7);
  EXPECT_DOUBLE_EQ(Time::seconds(2.0).to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Time::millis(1.0).to_millis(), 1.0);
  EXPECT_EQ(Time::minutes(1.0), Time::seconds(60.0));
  EXPECT_EQ(Time::hours(1.0), Time::seconds(3600.0));
}

TEST(Time, Arithmetic) {
  const Time a = Time::seconds(2.0);
  const Time b = Time::seconds(0.5);
  EXPECT_EQ(a + b, Time::seconds(2.5));
  EXPECT_EQ(a - b, Time::seconds(1.5));
  EXPECT_EQ(a * 2.0, Time::seconds(4.0));
  EXPECT_EQ(2.0 * a, Time::seconds(4.0));
  EXPECT_EQ(a / 2.0, Time::seconds(1.0));
  EXPECT_DOUBLE_EQ(a / b, 4.0);
}

TEST(Time, CompoundAssignment) {
  Time t = Time::seconds(1.0);
  t += Time::seconds(2.0);
  EXPECT_EQ(t, Time::seconds(3.0));
  t -= Time::seconds(0.5);
  EXPECT_EQ(t, Time::seconds(2.5));
}

TEST(Time, Comparison) {
  EXPECT_LT(Time::millis(1.0), Time::millis(2.0));
  EXPECT_GE(Time::zero(), Time::zero());
  EXPECT_TRUE(Time::zero().is_zero());
  EXPECT_TRUE((Time::zero() - Time::millis(1.0)).is_negative());
}

TEST(Time, RoundsToNearestMicrosecond) {
  EXPECT_EQ(Time::seconds(1e-7).to_micros(), 0);
  EXPECT_EQ(Time::seconds(6e-7).to_micros(), 1);
  EXPECT_EQ(Time::seconds(-6e-7).to_micros(), -1);
}

TEST(Time, Streaming) {
  std::ostringstream os;
  os << Time::seconds(1.25);
  EXPECT_EQ(os.str(), "1.250000s");
}

// ------------------------------------------------------------------ Rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(7);
  Rng c1 = root.fork("alpha");
  Rng c2 = Rng(7).fork("alpha");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
  Rng d1 = Rng(7).fork("alpha");
  Rng d2 = Rng(7).fork("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (d1.next_u64() == d2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01Bounds) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01Mean) {
  Rng r(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntRangeAndCoverage) {
  Rng r(11);
  std::vector<int> hits(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = r.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++hits[static_cast<std::size_t>(v)];
  }
  for (int h : hits) EXPECT_GT(h, 800);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(13);
  int n = 0;
  for (int i = 0; i < 20000; ++i)
    if (r.bernoulli(0.3)) ++n;
  EXPECT_NEAR(n / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.exponential(2.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng r(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng r(23);
  const auto s = r.sample(10, 4);
  EXPECT_EQ(s.size(), 4u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
  auto sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Rng, SampleFullAndEmpty) {
  Rng r(29);
  EXPECT_EQ(r.sample(5, 5).size(), 5u);
  EXPECT_TRUE(r.sample(5, 0).empty());
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ContractViolations) {
  Rng r(1);
  EXPECT_THROW(r.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(r.uniform_int(3, 2), ContractViolation);
  EXPECT_THROW(r.exponential(0.0), ContractViolation);
  EXPECT_THROW(r.normal(0.0, -1.0), ContractViolation);
  EXPECT_THROW(r.sample(3, 4), ContractViolation);
}

// ---------------------------------------------------------------- Stats --

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
}

TEST(Percentile, Interpolation) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
}

TEST(Percentile, SelectionMatchesTheSortedDefinitionBitForBit) {
  // Reference: the interpolated percentile read off a fully sorted copy.
  const auto sorted_percentile = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    if (v.size() == 1) return v.front();
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
  };
  Rng rng(39);
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes up to past the retransmission timer's 512-sample window, with
    // repeated values in about half the trials.
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 600));
    const bool repeats = rng.bernoulli(0.5);
    std::vector<double> v(n);
    for (double& x : v)
      x = repeats ? static_cast<double>(rng.uniform_int(0, 20)) * 0.005
                  : rng.exponential(0.05);
    for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      std::vector<double> scratch = v;
      EXPECT_EQ(percentile_in_place(scratch, p), sorted_percentile(v, p))
          << "n " << n << ", p " << p;
      EXPECT_EQ(percentile(v, p), sorted_percentile(v, p));
    }
  }
}

TEST(Percentile, Contracts) {
  EXPECT_THROW(percentile({}, 50.0), ContractViolation);
  EXPECT_THROW(percentile({1.0}, 101.0), ContractViolation);
}

TEST(MeanCi95, CoversKnownValue) {
  std::vector<double> v;
  Rng r(37);
  for (int i = 0; i < 1000; ++i) v.push_back(r.normal(10.0, 1.0));
  const Interval ci = mean_ci95(v);
  EXPECT_LT(ci.lo, 10.0);
  EXPECT_GT(ci.hi, 10.0);
  EXPECT_LT(ci.half_width(), 0.15);
}

TEST(BootstrapMedianCi, ContainsMedian) {
  std::vector<double> v;
  Rng r(41);
  for (int i = 0; i < 500; ++i) v.push_back(r.exponential(3.0));
  Rng boot(43);
  const Interval ci = bootstrap_median_ci95(v, boot, 500);
  const double m = median(v);
  EXPECT_LE(ci.lo, m);
  EXPECT_GE(ci.hi, m);
}

// ------------------------------------------------------------------ Cdf --

TEST(Cdf, BasicFractions) {
  Cdf c;
  c.add(1.0);
  c.add(2.0);
  c.add(3.0);
  c.add(4.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(10.0), 1.0);
}

TEST(Cdf, WeightedSamples) {
  Cdf c;
  c.add(1.0, 1.0);
  c.add(10.0, 3.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 10.0);
}

TEST(Cdf, QuantileEdges) {
  Cdf c;
  for (int i = 1; i <= 10; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 5.0);
}

TEST(Cdf, ZeroWeightIgnored) {
  Cdf c;
  c.add(5.0, 0.0);
  EXPECT_TRUE(c.empty());
}

TEST(Cdf, EvaluateGrid) {
  Cdf c;
  c.add(1.0);
  c.add(2.0);
  const auto ys = c.evaluate({0.0, 1.0, 2.0});
  ASSERT_EQ(ys.size(), 3u);
  EXPECT_DOUBLE_EQ(ys[0], 0.0);
  EXPECT_DOUBLE_EQ(ys[1], 0.5);
  EXPECT_DOUBLE_EQ(ys[2], 1.0);
}

TEST(Cdf, MonotoneNondecreasing) {
  Cdf c;
  Rng r(47);
  for (int i = 0; i < 200; ++i) c.add(r.uniform(0, 100), r.uniform(0.1, 2.0));
  double prev = -1.0;
  for (double x = 0.0; x <= 100.0; x += 5.0) {
    const double y = c.fraction_at_or_below(x);
    EXPECT_GE(y, prev);
    prev = y;
  }
}

TEST(Cdf, SortedValuesDeduplicated) {
  Cdf c;
  c.add(2.0);
  c.add(1.0);
  c.add(2.0);
  const auto v = c.sorted_values();
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
}

// ----------------------------------------------------------------- Ewma --

TEST(Ewma, FirstSampleSetsValue) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.update(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, HalfAlphaAveraging) {
  Ewma e(0.5);
  e.update(10.0);
  e.update(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.update(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.5);
}

TEST(Ewma, ValueOrFallback) {
  Ewma e;
  EXPECT_DOUBLE_EQ(e.value_or(-1.0), -1.0);
  e.update(2.0);
  EXPECT_DOUBLE_EQ(e.value_or(-1.0), 2.0);
}

TEST(Ewma, ResetClears) {
  Ewma e;
  e.update(1.0);
  e.reset();
  EXPECT_FALSE(e.initialized());
}

TEST(Ewma, InvalidAlphaThrows) {
  EXPECT_THROW(Ewma(0.0), ContractViolation);
  EXPECT_THROW(Ewma(1.5), ContractViolation);
}

TEST(Ewma, UninitializedValueThrows) {
  Ewma e;
  EXPECT_THROW(e.value(), ContractViolation);
}

// ---------------------------------------------------------------- Table --

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("| x      | 1  "), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
  EXPECT_EQ(TextTable::pct(0.256, 0), "26%");
  EXPECT_EQ(TextTable::num_ci(2.0, 0.5, 1), "2.0 ±0.5");
}

TEST(SeriesChart, PrintsAlignedSeries) {
  SeriesChart chart("fig", "x");
  chart.set_x({1.0, 2.0});
  chart.add_series("a", {0.1, 0.2});
  chart.add_series("b", {0.3, 0.4});
  const std::string s = chart.to_string();
  EXPECT_NE(s.find("fig"), std::string::npos);
  EXPECT_NE(s.find('a'), std::string::npos);
  EXPECT_NE(s.find("0.40"), std::string::npos);
}

TEST(SeriesChart, MismatchedLengthThrows) {
  SeriesChart chart("fig", "x");
  chart.set_x({1.0, 2.0});
  chart.add_series("a", {0.1});
  std::ostringstream os;
  EXPECT_THROW(chart.print(os), ContractViolation);
}

// ------------------------------------------------------------ Contracts --

TEST(Contracts, MacroMessagesNameTheExpression) {
  try {
    VIFI_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace vifi
