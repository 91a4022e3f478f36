#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace conscale {
namespace {

TEST(LinearHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LinearHistogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(LinearHistogram, CountsAndMean) {
  LinearHistogram h(0.0, 10.0, 10);
  h.add(1.0);
  h.add(5.0);
  h.add(9.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(LinearHistogram, ClampsOutOfRange) {
  LinearHistogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(25.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(LinearHistogram, PercentileApproximatesExact) {
  Rng rng(11);
  LinearHistogram h(0.0, 100.0, 1000);
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    h.add(v);
    exact.push_back(v);
  }
  for (double pct : {10.0, 50.0, 95.0, 99.0}) {
    EXPECT_NEAR(h.percentile(pct), percentile(exact, pct), 0.5) << pct;
  }
}

TEST(LinearHistogram, ResetClears) {
  LinearHistogram h(0.0, 1.0, 4);
  h.add(0.5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 8), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 0), std::invalid_argument);
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, SingleValue) {
  LogHistogram h;
  h.add(0.125);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_NEAR(h.percentile(50.0), 0.125, 0.125 * 0.1);
  EXPECT_DOUBLE_EQ(h.max_recorded(), 0.125);
}

// Relative error of percentiles must stay within the sub-bucket resolution
// across several orders of magnitude (latencies from 0.1 ms to minutes).
TEST(LogHistogram, PercentileRelativeErrorBounded) {
  Rng rng(13);
  LogHistogram h(1e-4, 32);
  std::vector<double> exact;
  for (int i = 0; i < 30000; ++i) {
    const double v = rng.lognormal_mean_cv(0.05, 2.0);  // heavy-tailed RTs
    h.add(v);
    exact.push_back(v);
  }
  for (double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double reference = percentile(exact, pct);
    EXPECT_NEAR(h.percentile(pct), reference, reference * 0.08) << pct;
  }
}

TEST(LogHistogram, FractionBelowThreshold) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(0.01 * i);  // 10ms .. 1s
  EXPECT_DOUBLE_EQ(h.fraction_below(10.0), 1.0);
  EXPECT_NEAR(h.fraction_below(0.5), 0.5, 0.04);
  EXPECT_NEAR(h.fraction_below(0.25), 0.25, 0.04);
  EXPECT_DOUBLE_EQ(h.fraction_below(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(LogHistogram().fraction_below(1.0), 0.0);
}

TEST(LogHistogram, PercentileNeverExceedsMax) {
  LogHistogram h;
  h.add(1.0);
  h.add(2.0);
  h.add(3.0);
  EXPECT_LE(h.percentile(100.0), 3.0);
  EXPECT_LE(h.percentile(99.0), 3.0);
}

TEST(LogHistogram, NegativeValuesClampToZeroBucket) {
  LogHistogram h;
  h.add(-1.0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_GE(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, MergeEqualsUnion) {
  Rng rng(17);
  LogHistogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.exponential(0.2);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  EXPECT_DOUBLE_EQ(a.percentile(95.0), all.percentile(95.0));
  EXPECT_DOUBLE_EQ(a.max_recorded(), all.max_recorded());
}

TEST(LogHistogram, MergeLayoutMismatchThrows) {
  LogHistogram a(1e-4, 32);
  LogHistogram b(1e-3, 32);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// The bucket formula the layout was defined by: truncate std::log2 for the
// octave and divide by std::exp2 of it. index_for must match it exactly.
std::size_t reference_index(double value, double unit, std::size_t sub_buckets,
                            std::size_t bucket_count) {
  if (value <= unit) return 0;
  const double scaled = value / unit;
  const int power = std::min(62, static_cast<int>(std::log2(scaled)));
  const double base = std::exp2(static_cast<double>(power));
  const double frac = (scaled - base) / base;
  auto sub = static_cast<std::size_t>(frac * static_cast<double>(sub_buckets));
  sub = std::min(sub, sub_buckets - 1);
  const std::size_t idx = static_cast<std::size_t>(power) * sub_buckets + sub;
  return std::min(idx, bucket_count - 1);
}

TEST(LogHistogram, IndexMatchesLog2FormulaAtOctaveEdges) {
  for (const double unit : {1e-4, 1e-3, 1.0, 0.3}) {
    LogHistogram h(unit, 32);
    for (int k = 0; k <= 62; ++k) {
      const double edge = std::ldexp(unit, k);
      double below = edge;
      double above = edge;
      for (int step = 0; step < 4; ++step) {
        for (const double v : {below, above}) {
          EXPECT_EQ(h.index_for(v), reference_index(v, unit, 32, 64 * 32))
              << "unit=" << unit << " k=" << k << " v=" << v;
        }
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, HUGE_VAL);
      }
    }
  }
}

TEST(LogHistogram, IndexMatchesLog2FormulaOnRandomValues) {
  Rng rng(99);
  LogHistogram h(1e-4, 32);
  LogHistogram coarse(1e-3, 7);
  for (int i = 0; i < 1000000; ++i) {
    // Log-uniform over 2^-20 .. 2^70 times the unit, so every octave and
    // the clamp beyond the last one are hit.
    const double v = std::ldexp(1e-4, -20) * std::exp2(rng.uniform(0.0, 90.0));
    ASSERT_EQ(h.index_for(v), reference_index(v, 1e-4, 32, 64 * 32)) << v;
    ASSERT_EQ(coarse.index_for(v), reference_index(v, 1e-3, 7, 64 * 7)) << v;
  }
}

}  // namespace
}  // namespace conscale
