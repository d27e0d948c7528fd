#include "server/change_model.h"

#include <gtest/gtest.h>

namespace catalyst::server {
namespace {

TEST(ChangeProcessTest, NeverChanges) {
  const ChangeProcess cp = ChangeProcess::never();
  EXPECT_EQ(cp.version_at(TimePoint{}), 0u);
  EXPECT_EQ(cp.version_at(TimePoint{} + days(365)), 0u);
  EXPECT_EQ(cp.last_change_at(TimePoint{} + days(1)), TimePoint{});
  EXPECT_FALSE(cp.changes_in(TimePoint{}, TimePoint{} + days(100)));
}

TEST(ChangeProcessTest, PeriodicVersions) {
  const ChangeProcess cp =
      ChangeProcess::periodic(hours(2), hours(1), days(1));
  // Changes at 1h, 3h, 5h, ...
  EXPECT_EQ(cp.version_at(TimePoint{}), 0u);
  EXPECT_EQ(cp.version_at(TimePoint{} + minutes(59)), 0u);
  EXPECT_EQ(cp.version_at(TimePoint{} + hours(1)), 1u);
  EXPECT_EQ(cp.version_at(TimePoint{} + hours(4)), 2u);
  EXPECT_EQ(cp.last_change_at(TimePoint{} + hours(4)),
            TimePoint{} + hours(3));
  EXPECT_TRUE(cp.changes_in(TimePoint{}, TimePoint{} + hours(2)));
  EXPECT_FALSE(
      cp.changes_in(TimePoint{} + hours(1), TimePoint{} + hours(2)));
}

TEST(ChangeProcessTest, PeriodicRejectsBadPeriod) {
  EXPECT_THROW(ChangeProcess::periodic(Duration::zero(), hours(1), days(1)),
               std::invalid_argument);
}

TEST(ChangeProcessTest, PoissonDeterministicForRngState) {
  Rng a(5), b(5);
  const ChangeProcess cp1 = ChangeProcess::poisson(hours(6), days(30), a);
  const ChangeProcess cp2 = ChangeProcess::poisson(hours(6), days(30), b);
  EXPECT_EQ(cp1.total_changes(), cp2.total_changes());
  for (int h = 0; h < 30 * 24; h += 7) {
    EXPECT_EQ(cp1.version_at(TimePoint{} + hours(h)),
              cp2.version_at(TimePoint{} + hours(h)));
  }
}

TEST(ChangeProcessTest, PoissonMeanCountApproximatesRate) {
  // 30 days at mean interval 6h -> expect ~120 changes.
  Rng rng(7);
  double total = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(
        ChangeProcess::poisson(hours(6), days(30), rng).total_changes());
  }
  EXPECT_NEAR(total / trials, 120.0, 10.0);
}

TEST(ChangeProcessTest, PoissonRejectsNonPositiveInterval) {
  Rng rng(1);
  EXPECT_THROW(ChangeProcess::poisson(Duration::zero(), days(1), rng),
               std::invalid_argument);
}

TEST(ChangeProcessTest, VersionMonotoneNonDecreasing) {
  Rng rng(9);
  const ChangeProcess cp = ChangeProcess::poisson(hours(1), days(3), rng);
  std::uint64_t prev = 0;
  for (int m = 0; m < 3 * 24 * 60; m += 13) {
    const std::uint64_t v = cp.version_at(TimePoint{} + minutes(m));
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_EQ(cp.version_at(TimePoint{} + days(30)), cp.total_changes());
}

}  // namespace
}  // namespace catalyst::server
