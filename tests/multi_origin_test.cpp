// Multi-origin (third-party) bundles and the environment knobs:
// DNS lookups, protocol override, mobile compute.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/sitegen.h"

namespace catalyst {
namespace {

using core::StrategyKind;

workload::SitegenParams bundle_params(double fraction) {
  workload::SitegenParams p;
  p.seed = 77;
  p.site_index = 2;
  p.clone_static_snapshot = true;
  p.third_party_fraction = fraction;
  return p;
}

TEST(SiteBundleTest, ZeroFractionHasNoThirdParties) {
  const auto bundle = workload::generate_site_bundle(bundle_params(0.0));
  EXPECT_TRUE(bundle.third_party.empty());
}

TEST(SiteBundleTest, FractionMovesResourcesOffOrigin) {
  const auto none = workload::generate_site_bundle(bundle_params(0.0));
  const auto some = workload::generate_site_bundle(bundle_params(0.4));
  ASSERT_FALSE(some.third_party.empty());
  std::size_t tp_resources = 0;
  for (const auto& tp : some.third_party) {
    EXPECT_NE(tp->host().find("thirdparty"), std::string::npos);
    tp_resources += tp->resource_count();
  }
  EXPECT_GT(tp_resources, 0u);
  // Total resources conserved (same seed, same plan).
  EXPECT_EQ(none.main->resource_count(),
            some.main->resource_count() + tp_resources);
}

TEST(SiteBundleTest, HtmlReferencesAbsoluteThirdPartyUrls) {
  const auto bundle = workload::generate_site_bundle(bundle_params(0.5));
  const auto& html =
      bundle.main->find("/index.html")->content_at(TimePoint{});
  EXPECT_NE(html.find("https://cdn"), std::string::npos);
}

TEST(SiteBundleTest, DeterministicAcrossCalls) {
  const auto a = workload::generate_site_bundle(bundle_params(0.3));
  const auto b = workload::generate_site_bundle(bundle_params(0.3));
  ASSERT_EQ(a.third_party.size(), b.third_party.size());
  for (std::size_t i = 0; i < a.third_party.size(); ++i) {
    EXPECT_EQ(a.third_party[i]->resource_count(),
              b.third_party[i]->resource_count());
  }
}

TEST(MultiOriginTest, ColdLoadFetchesFromAllOrigins) {
  const auto bundle = workload::generate_site_bundle(bundle_params(0.4));
  auto tb = core::make_testbed(bundle,
                               netsim::NetworkConditions::median_5g(),
                               StrategyKind::Baseline);
  const auto cold = core::run_visit(tb, TimePoint{});
  // All resources across origins got loaded.
  std::size_t total = bundle.main->resource_count();
  for (const auto& tp : bundle.third_party) total += tp->resource_count();
  EXPECT_EQ(cold.resources_total, total);
}

TEST(MultiOriginTest, ThirdPartyResourcesNeverServedBySw) {
  const auto bundle = workload::generate_site_bundle(bundle_params(0.4));
  auto tb = core::make_testbed(bundle,
                               netsim::NetworkConditions::median_5g(),
                               StrategyKind::Catalyst);
  (void)core::run_visit(tb, TimePoint{});
  const auto revisit = core::run_visit(tb, TimePoint{} + hours(6));
  // SW hits happen, but never for third-party origins: those hosts have
  // no registered worker.
  EXPECT_GT(revisit.counters.from_sw_cache, 0u);
  for (const auto& tp : bundle.third_party) {
    EXPECT_FALSE(tb.browser->sw_registered(tp->host()));
  }
}

TEST(MultiOriginTest, ThirdPartyReductionSmallerThanSingleOrigin) {
  const auto single = workload::generate_site_bundle(bundle_params(0.0));
  const auto multi = workload::generate_site_bundle(bundle_params(0.5));
  const auto c = netsim::NetworkConditions::median_5g();
  auto reduction = [&](const workload::SiteBundle& bundle) {
    const auto base = core::run_revisit_pair(bundle, c,
                                             StrategyKind::Baseline,
                                             hours(6));
    const auto cat = core::run_revisit_pair(bundle, c,
                                            StrategyKind::Catalyst,
                                            hours(6));
    return (to_millis(base.revisit.plt()) - to_millis(cat.revisit.plt())) /
           to_millis(base.revisit.plt());
  };
  EXPECT_GT(reduction(single), reduction(multi));
}

TEST(EnvironmentKnobsTest, DnsLookupSlowsColdNotRevisit) {
  workload::SitegenParams p;
  p.seed = 78;
  p.site_index = 0;
  p.clone_static_snapshot = true;
  auto site = workload::generate_site(p);
  const auto c = netsim::NetworkConditions::median_5g();
  core::StrategyOptions with_dns;
  with_dns.dns_lookup = milliseconds(50);
  const auto plain =
      core::run_revisit_pair(site, c, StrategyKind::Baseline, hours(1));
  const auto dns = core::run_revisit_pair(site, c, StrategyKind::Baseline,
                                          hours(1), with_dns);
  EXPECT_GT(dns.cold.plt(), plain.cold.plt());
  // The resolver cache covers the revisit (same session).
  EXPECT_EQ(dns.revisit.plt(), plain.revisit.plt());
}

TEST(EnvironmentKnobsTest, H2OverrideSpeedsBaselineRevisit) {
  workload::SitegenParams p;
  p.seed = 79;
  p.site_index = 1;
  p.clone_static_snapshot = true;
  auto site = workload::generate_site(p);
  const auto c = netsim::NetworkConditions::median_5g();
  core::StrategyOptions h2;
  h2.browser_protocol = netsim::Protocol::H2;
  const auto h1_run =
      core::run_revisit_pair(site, c, StrategyKind::Baseline, hours(6));
  const auto h2_run = core::run_revisit_pair(site, c,
                                             StrategyKind::Baseline,
                                             hours(6), h2);
  // Multiplexed revalidations collapse the 6-connection serialization.
  EXPECT_LT(h2_run.revisit.plt(), h1_run.revisit.plt());
}

TEST(EnvironmentKnobsTest, MobileClientIsSlower) {
  workload::SitegenParams p;
  p.seed = 80;
  p.site_index = 2;
  auto site = workload::generate_site(p);
  const auto c = netsim::NetworkConditions::median_5g();
  core::StrategyOptions mobile;
  mobile.mobile_client = true;
  const auto desktop =
      core::run_revisit_pair(site, c, StrategyKind::Baseline, hours(1));
  const auto phone = core::run_revisit_pair(site, c,
                                            StrategyKind::Baseline,
                                            hours(1), mobile);
  EXPECT_GT(phone.cold.plt(), desktop.cold.plt());
  EXPECT_GT(phone.revisit.plt(), desktop.revisit.plt());
}

}  // namespace
}  // namespace catalyst
