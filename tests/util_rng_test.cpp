#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace catalyst {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(10);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform_int(8, 3), std::invalid_argument);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, ExponentialRejectsNonPositiveRate) {
  Rng rng(15);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, LognormalPositive) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

TEST(RngTest, WeightedIndexRespectsZeros) {
  Rng rng(18);
  const std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 1000; ++i) {
    const std::size_t idx = rng.weighted_index(weights);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(19);
  const std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_index(weights) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexRejectsAllZero) {
  Rng rng(20);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(RngTest, ForkIsDeterministicAndIndependent) {
  Rng parent(21);
  Rng a = parent.fork(1);
  Rng b = parent.fork(1);
  Rng c = parent.fork(2);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // same stream: identical
  Rng a2 = parent.fork(1);
  EXPECT_NE(a2.next_u64(), c.next_u64());  // different streams diverge
}

TEST(RngTest, ForkDoesNotPerturbParent) {
  Rng p1(22), p2(22);
  (void)p1.fork(5);
  EXPECT_EQ(p1.next_u64(), p2.next_u64());
}

}  // namespace
}  // namespace catalyst
