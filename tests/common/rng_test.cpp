#include "common/rng.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace conscale {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent1(7), parent2(7);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  // Children from identical parents agree...
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child1.next(), child2.next());
  // ...and consuming a child does not change the parent's stream.
  EXPECT_EQ(parent1.next(), parent2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(8);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.uniform_index(n), n);
    }
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(9);
  bool seen[5] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.uniform_index(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(10);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.05);
  EXPECT_NEAR(s.stddev(), 2.5, 0.08);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, ExponentialNonPositiveMeanIsZero) {
  Rng rng(11);
  EXPECT_DOUBLE_EQ(rng.exponential(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rng.exponential(-1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMeanCvMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.lognormal_mean_cv(4.0, 0.5));
  EXPECT_NEAR(s.mean(), 4.0, 0.05);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.5, 0.02);
  EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, LognormalParamsDrawTheSameDoubles) {
  // The precomputed constants must reproduce the per-draw formula bit for
  // bit, or every service demand (and so every run's output) would move.
  auto per_draw = [](Rng& rng, double mean, double cv) {
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(rng.normal(mu, std::sqrt(sigma2)));
  };
  const double cases[][2] = {{4.0, 0.5}, {0.0123, 0.25}, {7.5e-4, 0.3},
                             {2.0, 1.7}, {1e-9, 1e-3}, {3.0, 0.0},
                             {0.0, 0.5}, {-1.0, 0.5}};
  for (const auto& [mean, cv] : cases) {
    Rng a(21);
    Rng b(21);
    Rng c(21);
    const LognormalParams params(mean, cv);
    for (int i = 0; i < 1000; ++i) {
      const double cached = a.lognormal(params);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cached),
                std::bit_cast<std::uint64_t>(b.lognormal_mean_cv(mean, cv)))
          << "mean=" << mean << " cv=" << cv << " draw " << i;
      if (mean > 0.0 && cv > 0.0) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cached),
                  std::bit_cast<std::uint64_t>(per_draw(c, mean, cv)));
      }
    }
  }
}

TEST(Rng, LognormalDegenerateCases) {
  Rng rng(14);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(3.0, 0.0), 3.0);
}

TEST(Rng, PoissonMoments) {
  Rng rng(15);
  RunningStats small, large;
  for (int i = 0; i < 50000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(100.0)));  // normal approx path
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.05);
  EXPECT_NEAR(small.variance(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 0.3);
  EXPECT_NEAR(large.variance(), 100.0, 3.0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(16);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

}  // namespace
}  // namespace conscale
