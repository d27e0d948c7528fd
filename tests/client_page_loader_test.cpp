// End-to-end page-load behaviour on the paper's Figure-1 example site.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.h"
#include "core/testbed.h"
#include "workload/sitegen.h"

namespace catalyst::client {
namespace {

using core::StrategyKind;

const netsim::FetchTrace* find_trace(const PageLoadResult& result,
                                     std::string_view url) {
  for (const auto& t : result.trace.traces()) {
    if (t.url == url) return &t;
  }
  return nullptr;
}

class Figure1Fixture : public ::testing::Test {
 protected:
  core::Testbed testbed(StrategyKind kind) {
    return core::make_testbed(workload::make_figure1_site(),
                              netsim::NetworkConditions::median_5g(), kind);
  }
};

TEST_F(Figure1Fixture, ColdLoadFetchesAllFiveResources) {
  auto tb = testbed(StrategyKind::Baseline);
  const auto result = core::run_visit(tb, TimePoint{});
  EXPECT_EQ(result.resources_total, 5u);
  EXPECT_EQ(result.counters.from_network, 5u);
  for (const char* url :
       {"/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"}) {
    EXPECT_NE(find_trace(result, url), nullptr) << url;
  }
}

TEST_F(Figure1Fixture, DependencyChainOrdering) {
  auto tb = testbed(StrategyKind::Baseline);
  const auto result = core::run_visit(tb, TimePoint{});
  const auto* html = find_trace(result, "/index.html");
  const auto* a = find_trace(result, "/a.css");
  const auto* b = find_trace(result, "/b.js");
  const auto* c = find_trace(result, "/c.js");
  const auto* d = find_trace(result, "/d.jpg");
  ASSERT_TRUE(html && a && b && c && d);
  // a.css and b.js discovered after HTML parse.
  EXPECT_GE(a->start, html->finish);
  EXPECT_GE(b->start, html->finish);
  // c.js only requested after b.js arrived (and executed).
  EXPECT_GT(c->start, b->finish);
  // d.jpg only requested after c.js arrived (and executed).
  EXPECT_GT(d->start, c->finish);
  // OnLoad fires at the end of the last fetch (plus compute).
  EXPECT_GE(result.onload, d->finish);
}

TEST_F(Figure1Fixture, BaselineRevisitMatchesFigure1b) {
  auto tb = testbed(StrategyKind::Baseline);
  (void)core::run_visit(tb, TimePoint{});
  const auto revisit = core::run_visit(tb, TimePoint{} + hours(2));
  // index.html: no-cache -> 304. a.css: fresh (1 week). b.js: no-cache ->
  // 304. c.js: fresh. d.jpg: expired (2h) AND changed (at 1h) -> 200.
  EXPECT_EQ(find_trace(revisit, "/index.html")->source,
            netsim::FetchSource::NotModified);
  EXPECT_EQ(find_trace(revisit, "/a.css")->source,
            netsim::FetchSource::BrowserCache);
  EXPECT_EQ(find_trace(revisit, "/b.js")->source,
            netsim::FetchSource::NotModified);
  EXPECT_EQ(find_trace(revisit, "/c.js")->source,
            netsim::FetchSource::BrowserCache);
  EXPECT_EQ(find_trace(revisit, "/d.jpg")->source,
            netsim::FetchSource::Network);
  EXPECT_EQ(revisit.counters.not_modified, 2u);
  EXPECT_EQ(revisit.counters.from_cache, 2u);
  EXPECT_EQ(revisit.counters.from_network, 1u);
}

TEST_F(Figure1Fixture, CatalystRevisitMatchesFigure1c) {
  auto tb = testbed(StrategyKind::Catalyst);
  (void)core::run_visit(tb, TimePoint{});
  const auto revisit = core::run_visit(tb, TimePoint{} + hours(2));
  // Optimized: a.css and b.js served by the SW with zero RTTs; d.jpg
  // changed so it must be fetched (it is map-covered... d.jpg is only
  // discovered through JS, so the SW forwards it with revalidation and
  // the origin answers 200 with the new bytes).
  EXPECT_EQ(find_trace(revisit, "/a.css")->source,
            netsim::FetchSource::SwCache);
  EXPECT_EQ(find_trace(revisit, "/b.js")->source,
            netsim::FetchSource::SwCache);
  EXPECT_EQ(find_trace(revisit, "/d.jpg")->source,
            netsim::FetchSource::Network);
  EXPECT_EQ(revisit.counters.from_sw_cache, 2u);
}

TEST_F(Figure1Fixture, CatalystRevisitFasterThanBaseline) {
  auto base_tb = testbed(StrategyKind::Baseline);
  auto cat_tb = testbed(StrategyKind::Catalyst);
  (void)core::run_visit(base_tb, TimePoint{});
  (void)core::run_visit(cat_tb, TimePoint{});
  const auto base = core::run_visit(base_tb, TimePoint{} + hours(2));
  const auto cat = core::run_visit(cat_tb, TimePoint{} + hours(2));
  EXPECT_LT(cat.plt(), base.plt());
  EXPECT_LT(cat.rtts, base.rtts);
}

TEST_F(Figure1Fixture, ColdLoadsEquivalentAcrossStrategies) {
  auto base_tb = testbed(StrategyKind::Baseline);
  auto cat_tb = testbed(StrategyKind::Catalyst);
  const auto base = core::run_visit(base_tb, TimePoint{});
  const auto cat = core::run_visit(cat_tb, TimePoint{});
  // Catalyst adds only header overhead + injection bytes on a cold load.
  EXPECT_NEAR(to_millis(cat.plt()), to_millis(base.plt()),
              to_millis(base.plt()) * 0.05);
}

TEST_F(Figure1Fixture, ServiceWorkerRegistersAfterFirstVisit) {
  auto tb = testbed(StrategyKind::Catalyst);
  (void)core::run_visit(tb, TimePoint{});
  EXPECT_TRUE(tb.browser->sw_registered("example.com"));
  // The SW cache holds the first visit's cacheable responses.
  const auto& sw = tb.browser->service_worker("example.com");
  EXPECT_GE(sw.cache().entry_count(), 4u);
}

TEST_F(Figure1Fixture, BaselineNeverRegistersServiceWorker) {
  auto tb = testbed(StrategyKind::Baseline);
  (void)core::run_visit(tb, TimePoint{});
  EXPECT_FALSE(tb.browser->sw_registered("example.com"));
}

TEST_F(Figure1Fixture, DeterministicAcrossRuns) {
  auto tb1 = testbed(StrategyKind::Catalyst);
  auto tb2 = testbed(StrategyKind::Catalyst);
  const auto r1 = core::run_visit(tb1, TimePoint{});
  const auto r2 = core::run_visit(tb2, TimePoint{});
  EXPECT_EQ(r1.plt(), r2.plt());
  const auto v1 = core::run_visit(tb1, TimePoint{} + hours(2));
  const auto v2 = core::run_visit(tb2, TimePoint{} + hours(2));
  EXPECT_EQ(v1.plt(), v2.plt());
  EXPECT_EQ(v1.bytes_downloaded, v2.bytes_downloaded);
}

TEST(CacheCountersTest, MergeSumsEveryField) {
  CacheCounters a{1, 2, 3, 4, 5, 6};
  const CacheCounters b{10, 20, 30, 40, 50, 60};
  a.merge(b);
  EXPECT_EQ(a, (CacheCounters{11, 22, 33, 44, 55, 66}));
  EXPECT_EQ(a.total(), 11u + 22 + 33 + 44 + 55);
  EXPECT_EQ(a.avoided_downloads(), 22u + 33 + 44 + 55);
}

}  // namespace
}  // namespace catalyst::client
