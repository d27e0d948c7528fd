// End-to-end tests for the 103 Early Hints and Cache-Digest Push
// baselines — the related-work mechanisms the paper's idea refines.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/sitegen.h"

namespace catalyst::core {
namespace {

std::shared_ptr<server::Site> clone_site(int index) {
  workload::SitegenParams p;
  p.seed = 2024;
  p.site_index = index;
  p.clone_static_snapshot = true;
  return workload::generate_site(p);
}

TEST(EarlyHintsTest, SpeedsUpColdLoads) {
  const auto site = clone_site(0);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto base =
      run_revisit_pair(site, c, StrategyKind::Baseline, hours(6));
  const auto hints =
      run_revisit_pair(site, c, StrategyKind::EarlyHints, hours(6));
  // Hinted subresources start before the HTML body finishes: cold loads
  // get faster; nothing gets slower.
  EXPECT_LT(hints.cold.plt(), base.cold.plt());
  EXPECT_LE(to_millis(hints.revisit.plt()),
            to_millis(base.revisit.plt()) * 1.01);
  // Same resources fetched either way.
  EXPECT_EQ(hints.cold.resources_total, base.cold.resources_total);
}

TEST(EarlyHintsTest, StillPaysRevalidationRtts) {
  // Early Hints helps discovery, not validation: stale-but-unchanged
  // resources still produce conditional GETs on revisits, which is why
  // the paper's approach goes further.
  const auto site = clone_site(1);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto hints =
      run_revisit_pair(site, c, StrategyKind::EarlyHints, hours(6));
  const auto catalyst =
      run_revisit_pair(site, c, StrategyKind::Catalyst, hours(6));
  EXPECT_GT(hints.revisit.counters.not_modified,
            catalyst.revisit.counters.not_modified);
  EXPECT_GT(hints.revisit.plt(), catalyst.revisit.plt());
}

TEST(EarlyHintsTest, NoDuplicateFetches) {
  const auto site = clone_site(2);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto base =
      run_revisit_pair(site, c, StrategyKind::Baseline, hours(1));
  const auto hints =
      run_revisit_pair(site, c, StrategyKind::EarlyHints, hours(1));
  // Preload joining must not double-download: byte volume comparable to
  // baseline (plus the tiny 103 responses).
  EXPECT_LT(hints.cold.bytes_downloaded,
            base.cold.bytes_downloaded + KiB(8));
}

TEST(PushDigestTest, SkipsAlreadyCachedResources) {
  const auto site = clone_site(3);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto all =
      run_revisit_pair(site, c, StrategyKind::PushAll, hours(6));
  const auto digest =
      run_revisit_pair(site, c, StrategyKind::PushDigest, hours(6));
  // The digest suppresses pushes of cached content: far fewer bytes on
  // the revisit than push-all.
  EXPECT_LT(digest.revisit.bytes_downloaded,
            all.revisit.bytes_downloaded / 2);
  // Cold loads have an empty digest: both push everything.
  EXPECT_NEAR(static_cast<double>(digest.cold.bytes_downloaded),
              static_cast<double>(all.cold.bytes_downloaded),
              static_cast<double>(all.cold.bytes_downloaded) * 0.05);
}

TEST(PushDigestTest, DigestCannotExpressFreshness) {
  // The digest says "I have a copy", not "my copy is current": on a live
  // site, changed resources are NOT pushed (the client has *a* copy), so
  // the client still pays a conditional GET for them — the structural
  // weakness catalyst's ETag map fixes.
  workload::SitegenParams p;
  p.seed = 99;
  p.site_index = 4;
  p.clone_static_snapshot = false;
  const auto site = workload::generate_site(p);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto digest =
      run_revisit_pair(site, c, StrategyKind::PushDigest, days(1));
  // Some revisit traffic is revalidation/downloads despite push.
  EXPECT_GT(digest.revisit.counters.from_network +
                digest.revisit.counters.not_modified,
            0u);
}

TEST(StrategyNamesTest, NewKinds) {
  EXPECT_EQ(to_string(StrategyKind::PushDigest), "push-digest");
  EXPECT_EQ(to_string(StrategyKind::EarlyHints), "early-hints");
}

}  // namespace
}  // namespace catalyst::core
