#include "server/ttl_policy.h"

#include <gtest/gtest.h>

namespace catalyst::server {
namespace {

TEST(TtlPolicyTest, DegenerateProfiles) {
  Rng rng(1);
  EXPECT_TRUE(assign_cache_policy(TtlProfile::AlwaysRevalidate,
                                  http::ResourceClass::Css, hours(1), rng)
                  .no_cache);
}

TEST(TtlPolicyTest, ConservativeCmsHtmlNeverGetsTtl) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto cc = assign_cache_policy(TtlProfile::ConservativeCms,
                                        http::ResourceClass::Html,
                                        hours(6), rng);
    EXPECT_TRUE(cc.no_cache || cc.no_store);
    EXPECT_FALSE(cc.max_age.has_value());
  }
}

TEST(TtlPolicyTest, ConservativeCmsMixForStaticClasses) {
  Rng rng(3);
  int no_store = 0, no_cache = 0, short_ttl = 0, longer_ttl = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto cc = assign_cache_policy(TtlProfile::ConservativeCms,
                                        http::ResourceClass::Css,
                                        days(20), rng);
    if (cc.no_store) {
      ++no_store;
    } else if (cc.no_cache) {
      ++no_cache;
    } else if (cc.max_age && *cc.max_age < hours(24)) {
      ++short_ttl;
    } else {
      ++longer_ttl;
    }
  }
  // The calibrated mix: ~5% no-store (css), ~30% no-cache, ~40% short
  // TTLs, remainder >= 1 day.
  EXPECT_NEAR(no_store / double(n), 0.05, 0.02);
  EXPECT_NEAR(no_cache / double(n), 0.30, 0.03);
  EXPECT_NEAR(short_ttl / double(n), 0.26, 0.03);
  EXPECT_GT(longer_ttl, 0);
}

TEST(TtlPolicyTest, NoStoreSkewsTowardImages) {
  Rng rng(4);
  const int n = 5000;
  int img_no_store = 0, font_no_store = 0;
  for (int i = 0; i < n; ++i) {
    if (assign_cache_policy(TtlProfile::ConservativeCms,
                            http::ResourceClass::Image, days(20), rng)
            .no_store) {
      ++img_no_store;
    }
    if (assign_cache_policy(TtlProfile::ConservativeCms,
                            http::ResourceClass::Font, days(20), rng)
            .no_store) {
      ++font_no_store;
    }
  }
  EXPECT_GT(img_no_store, 4 * font_no_store);
}

TEST(TtlPolicyTest, DeveloperTunedTracksChangeInterval) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto cc = assign_cache_policy(TtlProfile::DeveloperTuned,
                                        http::ResourceClass::Script,
                                        days(10), rng);
    ASSERT_TRUE(cc.max_age);
    // Hedged to 25-75% of the true mean interval.
    EXPECT_GE(*cc.max_age, days(10) / 4 - seconds(1));
    EXPECT_LE(*cc.max_age, days(10) * 3 / 4 + seconds(1));
  }
}

TEST(TtlPolicyTest, DeveloperTunedImmutableGetsLongTtl) {
  Rng rng(6);
  const auto cc = assign_cache_policy(TtlProfile::DeveloperTuned,
                                      http::ResourceClass::Font,
                                      Duration::zero(), rng);
  EXPECT_TRUE(cc.immutable);
  ASSERT_TRUE(cc.max_age);
  EXPECT_EQ(*cc.max_age, days(365));
}

TEST(TtlPolicyTest, Names) {
  EXPECT_EQ(to_string(TtlProfile::ConservativeCms), "conservative-cms");
  EXPECT_EQ(to_string(TtlProfile::DeveloperTuned), "developer-tuned");
}

}  // namespace
}  // namespace catalyst::server
