#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace catalyst {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  // Sample stddev of {1,2,3,4} = sqrt(5/3).
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SummaryTest, EmptyThrows) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.median(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(SummaryTest, SingleSample) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(SummaryTest, MedianAndPercentiles) {
  Summary s;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
  // Interpolation between ranks.
  Summary two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.percentile(50), 15.0);
}

TEST(SummaryTest, PercentileAfterLaterAdds) {
  Summary s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(3.0);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(SummaryTest, Ci95ShrinksWithN) {
  Summary small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : 2.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : 2.0);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SummaryMergeTest, MergeOfSplitsEqualsSingleAccumulation) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  Summary whole;
  for (double x : xs) whole.add(x);

  Summary left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < xs.size() / 2 ? left : right).add(xs[i]);
  }
  left.merge(right);

  ASSERT_EQ(left.count(), whole.count());
  // Sample order must match exactly so floating-point accumulation is
  // bit-identical — the fleet determinism invariant rides on this.
  EXPECT_EQ(left.samples(), whole.samples());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.median(), whole.median());
  EXPECT_DOUBLE_EQ(left.percentile(95), whole.percentile(95));
}

TEST(SummaryMergeTest, MergeEmptyIsNoOp) {
  Summary s;
  s.add(1.0);
  Summary empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 1u);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SummaryMergeTest, MergeInvalidatesSortedCache) {
  Summary s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);  // populate the sorted cache
  Summary other;
  other.add(3.0);
  s.merge(other);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(BinAxisTest, IndexAndEdges) {
  const BinAxis axis(0.0, 10.0, 5);
  EXPECT_EQ(axis.index(0.0), 0u);
  EXPECT_EQ(axis.index(1.9), 0u);
  EXPECT_EQ(axis.index(5.0), 2u);
  EXPECT_EQ(axis.index(9.999), 4u);
  EXPECT_EQ(axis.index(-3.0), 0u);   // clamps below
  EXPECT_EQ(axis.index(100.0), 4u);  // clamps above
  EXPECT_DOUBLE_EQ(axis.lower_edge(0), 0.0);
  EXPECT_DOUBLE_EQ(axis.lower_edge(2), 4.0);
  EXPECT_DOUBLE_EQ(axis.upper_edge(2), 6.0);
}

TEST(BinAxisTest, EqualityAndRejection) {
  EXPECT_EQ(BinAxis(0.0, 1.0, 4), BinAxis(0.0, 1.0, 4));
  EXPECT_FALSE(BinAxis(0.0, 1.0, 4) == BinAxis(0.0, 2.0, 4));
  EXPECT_THROW(BinAxis(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(BinAxis(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(BinAxis(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace catalyst
