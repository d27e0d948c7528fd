#include "fleet/user_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "workload/distributions.h"

namespace catalyst::fleet {
namespace {

TEST(UserModelTest, ProfileIsPureInSeedAndUserId) {
  UserModelParams params;
  const UserProfile a = make_user_profile(params, 4711);
  const UserProfile b = make_user_profile(params, 4711);
  EXPECT_EQ(a.user_id, b.user_id);
  EXPECT_EQ(a.site_index, b.site_index);
  EXPECT_EQ(a.tier, b.tier);
  EXPECT_EQ(a.mobile_client, b.mobile_client);
  EXPECT_EQ(a.visits, b.visits);
}

TEST(UserModelTest, DifferentUsersDiffer) {
  UserModelParams params;
  // Any single pair could collide by chance; across 50 users the visit
  // timelines must not all match user 0's.
  const UserProfile first = make_user_profile(params, 0);
  int identical = 0;
  for (std::uint64_t id = 1; id <= 50; ++id) {
    if (make_user_profile(params, id).visits == first.visits) ++identical;
  }
  EXPECT_EQ(identical, 0);
}

TEST(UserModelTest, DifferentSeedsDiffer) {
  UserModelParams a, b;
  b.master_seed = a.master_seed + 1;
  int identical = 0;
  for (std::uint64_t id = 0; id < 20; ++id) {
    if (make_user_profile(a, id).visits == make_user_profile(b, id).visits) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 20);
}

TEST(UserModelTest, VisitsSortedWithinHorizonAndCapped) {
  UserModelParams params;
  params.max_visits = 4;
  for (std::uint64_t id = 0; id < 200; ++id) {
    const UserProfile p = make_user_profile(params, id);
    ASSERT_FALSE(p.visits.empty());
    EXPECT_LE(p.visits.size(), 4u);
    EXPECT_TRUE(std::is_sorted(p.visits.begin(), p.visits.end()));
    EXPECT_LT(p.visits.back().since_epoch(), params.horizon);
    ASSERT_GE(p.site_index, 0);
    EXPECT_LT(p.site_index, params.site_catalog_size);
  }
}

TEST(UserModelTest, SitePopularityIsZipfSkewed) {
  UserModelParams params;
  std::map<int, int> by_site;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    ++by_site[make_user_profile(params, id).site_index];
  }
  // Rank 0 must clearly dominate the median rank.
  EXPECT_GT(by_site[0], by_site[params.site_catalog_size / 2] * 2);
}

TEST(UserModelTest, AllTiersAppear) {
  UserModelParams params;
  std::map<AccessTier, int> by_tier;
  for (std::uint64_t id = 0; id < 500; ++id) {
    ++by_tier[make_user_profile(params, id).tier];
  }
  EXPECT_EQ(by_tier.size(), 4u);
}

TEST(UserModelTest, TierConditionsAreOrdered) {
  // Worse tiers: less bandwidth, more latency.
  const auto fast = conditions_for(AccessTier::Fast5g);
  const auto slow = conditions_for(AccessTier::Constrained);
  EXPECT_GT(fast.downlink.bits_per_second(), slow.downlink.bits_per_second());
  EXPECT_LT(fast.rtt, slow.rtt);
}

TEST(DistributionsTest, ZipfRankBoundsAndDeterminism) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t k = workload::draw_zipf_rank(10, 0.9, rng);
    EXPECT_LT(k, 10u);
  }
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(workload::draw_zipf_rank(50, 0.9, a),
              workload::draw_zipf_rank(50, 0.9, b));
  }
  EXPECT_THROW(workload::draw_zipf_rank(0, 0.9, rng),
               std::invalid_argument);
}

TEST(DistributionsTest, ZipfDrawsNeverReuseAnotherPairsTable) {
  // (40, 1.0) and (284, 1.9913792895582298) collide under a memo keyed by
  // a SplitMix64 hash of n xor the bits of s: after one draw at the first
  // pair, draws at the second read the first pair's 40-entry table. Each
  // side runs on its own thread so it starts from an empty thread-local
  // memo.
  constexpr std::size_t kN = 284;
  constexpr double kS = 1.9913792895582298;
  const auto draw = [](bool prime_colliding_pair) {
    if (prime_colliding_pair) {
      Rng prime(1);
      workload::draw_zipf_rank(40, 1.0, prime);
    }
    Rng rng(2024);
    std::vector<std::size_t> ranks;
    for (int i = 0; i < 20000; ++i) {
      ranks.push_back(workload::draw_zipf_rank(kN, kS, rng));
    }
    return ranks;
  };
  std::vector<std::size_t> primed;
  std::vector<std::size_t> fresh;
  std::thread([&] { primed = draw(true); }).join();
  std::thread([&] { fresh = draw(false); }).join();
  EXPECT_EQ(primed, fresh);
  EXPECT_GE(*std::max_element(primed.begin(), primed.end()), 40u);
}

TEST(DistributionsTest, VisitGapFlooredAndMeanRoughlyRight) {
  Rng rng(11);
  double total = 0.0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    const Duration gap = workload::draw_visit_gap(hours(12), rng);
    EXPECT_GE(gap, minutes(1));
    total += to_seconds(gap);
  }
  const double mean_hours = total / kDraws / 3600.0;
  EXPECT_NEAR(mean_hours, 12.0, 1.0);
  EXPECT_THROW(workload::draw_visit_gap(Duration::zero(), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace catalyst::fleet
