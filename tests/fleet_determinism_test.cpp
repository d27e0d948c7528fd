// The fleet's headline invariant: a FleetReport is a pure function of
// (users, seed, strategy) — independent of worker-thread count and of how
// users are batched into shards.
#include <gtest/gtest.h>

#include <limits>

#include "fleet/runner.h"
#include "netsim/transport.h"

namespace catalyst::fleet {
namespace {

FleetParams small_fleet() {
  FleetParams params;
  params.shard_size = 4;
  params.user_model.site_catalog_size = 8;
  params.user_model.horizon = days(2);
  params.user_model.mean_visit_gap = hours(12);
  params.user_model.max_visits = 3;
  return params;
}

constexpr std::uint64_t kUsers = 24;

std::string run_fleet(FleetParams params, int threads) {
  return FleetRunner(std::move(params), kUsers, threads).run().serialize();
}

TEST(FleetDeterminismTest, ThreadCountDoesNotChangeReportBytes) {
  const std::string one = run_fleet(small_fleet(), 1);
  EXPECT_EQ(run_fleet(small_fleet(), 8), one);
  // And rerunning the same config is stable, not just coincidentally equal.
  EXPECT_EQ(run_fleet(small_fleet(), 1), one);
}

TEST(FleetDeterminismTest, ShardBoundariesDoNotChangeReportBytes) {
  // One user per shard vs all users in one shard: the extreme splits.
  FleetParams one_each = small_fleet();
  one_each.shard_size = 1;
  FleetParams all_in_one = small_fleet();
  all_in_one.shard_size = kUsers;
  // A shard size near the type's maximum must still make one shard.
  FleetParams huge = small_fleet();
  huge.shard_size = std::numeric_limits<std::uint64_t>::max();

  const std::string split = run_fleet(one_each, 8);
  const std::string whole = run_fleet(all_in_one, 1);
  EXPECT_EQ(split, whole);
  EXPECT_EQ(run_fleet(huge, 4), whole);
}

TEST(FleetDeterminismTest, H2TransportIsThreadInvariant) {
  // The --h2 ablation axis must uphold the same invariant as H1: forcing
  // browser_protocol changes the simulated transport, not determinism.
  FleetParams h2 = small_fleet();
  h2.options.browser_protocol = netsim::Protocol::H2;
  const std::string one = run_fleet(h2, 1);
  EXPECT_EQ(run_fleet(h2, 8), one);
  // And the axis is real: H2 reports differ from H1 reports.
  EXPECT_NE(run_fleet(small_fleet(), 1), one);
}

TEST(FleetDeterminismTest, SeedChangesReport) {
  FleetParams other_seed = small_fleet();
  other_seed.user_model.master_seed += 1;
  EXPECT_NE(run_fleet(small_fleet(), 1), run_fleet(other_seed, 1));
}

TEST(FleetDeterminismTest, SkippingBaselineHalvesWorkNotUsers) {
  FleetParams params = small_fleet();
  params.baseline = params.strategy;  // skip the comparison replay
  FleetRunner runner(params, kUsers, 2);
  const FleetReport report = runner.run();
  EXPECT_EQ(report.users, kUsers);
  EXPECT_EQ(report.baseline_rtts, 0u);
  EXPECT_EQ(report.rtts_saved(), -static_cast<std::int64_t>(report.rtts));
  EXPECT_EQ(report.plt_reduction_pct.count(), 0u);
  EXPECT_GT(report.plt_ms.count(), 0u);
}

TEST(FleetDeterminismTest, RunnerExposesProgressAfterRun) {
  FleetParams params = small_fleet();
  FleetRunner runner(params, kUsers, 4);
  runner.run();
  EXPECT_EQ(runner.shard_count(), (kUsers + 3) / 4);
}

}  // namespace
}  // namespace catalyst::fleet
