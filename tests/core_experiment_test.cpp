#include "core/experiment.h"

#include <gtest/gtest.h>

#include "workload/sitegen.h"

namespace catalyst::core {
namespace {

std::shared_ptr<server::Site> test_site(int index, bool clone = true) {
  workload::SitegenParams p;
  p.seed = 7;
  p.site_index = index;
  p.clone_static_snapshot = clone;
  return workload::generate_site(p);
}

TEST(ExperimentTest, PaperDelays) {
  const auto delays = paper_revisit_delays();
  ASSERT_EQ(delays.size(), 5u);
  EXPECT_EQ(delays[0], minutes(1));
  EXPECT_EQ(delays[4], days(7));
}

TEST(ExperimentTest, RevisitPairColdThenWarm) {
  const auto outcome = run_revisit_pair(
      test_site(0), netsim::NetworkConditions::median_5g(),
      StrategyKind::Baseline, hours(6));
  EXPECT_GT(outcome.cold.plt(), Duration::zero());
  EXPECT_LT(outcome.revisit.plt(), outcome.cold.plt());
  EXPECT_EQ(outcome.cold.counters.from_network, outcome.cold.resources_total);
  EXPECT_LT(outcome.revisit.counters.from_network,
            outcome.revisit.resources_total);
  // The revisit starts 6 simulated hours after the cold load began.
  EXPECT_GE(outcome.revisit.start, TimePoint{} + hours(6));
}

TEST(ExperimentTest, VisitSequenceRunsAllDelays) {
  const auto results = run_visit_sequence(
      test_site(1), netsim::NetworkConditions::median_5g(),
      StrategyKind::Catalyst, {minutes(1), hours(1)});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_LT(results[1].plt(), results[0].plt());
}

TEST(ExperimentTest, StrategyOrderingOnCloneRevisit) {
  // Oracle <= Catalyst <= Baseline on unchanged revisits (the DESIGN.md
  // monotonicity invariant), with a small tolerance for SW/header
  // overheads in the catalyst-vs-oracle comparison.
  for (int i = 0; i < 3; ++i) {
    const auto site = test_site(i);
    const auto c = netsim::NetworkConditions::median_5g();
    const auto base =
        run_revisit_pair(site, c, StrategyKind::Baseline, hours(6));
    const auto cat =
        run_revisit_pair(site, c, StrategyKind::Catalyst, hours(6));
    const auto oracle =
        run_revisit_pair(site, c, StrategyKind::Oracle, hours(6));
    EXPECT_LT(to_millis(cat.revisit.plt()),
              to_millis(base.revisit.plt()) * 1.001)
        << "site " << i;
    EXPECT_LT(to_millis(oracle.revisit.plt()),
              to_millis(cat.revisit.plt()) * 1.001)
        << "site " << i;
  }
}

TEST(ExperimentTest, CatalystSavesRttsNotJustTime) {
  const auto site = test_site(4);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto base =
      run_revisit_pair(site, c, StrategyKind::Baseline, hours(6));
  const auto cat =
      run_revisit_pair(site, c, StrategyKind::Catalyst, hours(6));
  EXPECT_LT(cat.revisit.rtts, base.revisit.rtts);
  EXPECT_GT(cat.revisit.counters.from_sw_cache, 0u);
}

TEST(ExperimentTest, PushWastesBandwidthOnRevisit) {
  const auto site = test_site(2);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto base =
      run_revisit_pair(site, c, StrategyKind::Baseline, hours(6));
  const auto push =
      run_revisit_pair(site, c, StrategyKind::PushAll, hours(6));
  // The push revisit resends resources the client already has.
  EXPECT_GT(push.revisit.bytes_downloaded,
            base.revisit.bytes_downloaded * 2);
  EXPECT_GT(push.revisit.counters.from_push, 0u);
}

TEST(ExperimentTest, RdrRevisitGainsNothing) {
  const auto site = test_site(3);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto rdr =
      run_revisit_pair(site, c, StrategyKind::RdrProxy, hours(6));
  // No client-cache reuse: the revisit costs as much as the cold load.
  EXPECT_NEAR(to_millis(rdr.revisit.plt()), to_millis(rdr.cold.plt()),
              to_millis(rdr.cold.plt()) * 0.02);
  EXPECT_GT(rdr.revisit.bytes_downloaded,
            rdr.cold.bytes_downloaded / 2);
}

TEST(ExperimentTest, ReductionSummaryPositiveAtMedian5g) {
  std::vector<std::shared_ptr<server::Site>> sites;
  for (int i = 0; i < 3; ++i) sites.push_back(test_site(i));
  const Summary s = plt_reduction_summary(
      sites, netsim::NetworkConditions::median_5g(),
      StrategyKind::Catalyst, StrategyKind::Baseline,
      {hours(1), days(1)});
  EXPECT_EQ(s.count(), 6u);
  EXPECT_GT(s.mean(), 5.0);   // solidly positive
  EXPECT_LT(s.mean(), 80.0);  // and sane
}

TEST(ExperimentTest, ImprovementGrowsWithLatency) {
  std::vector<std::shared_ptr<server::Site>> sites;
  for (int i = 0; i < 4; ++i) sites.push_back(test_site(i));
  netsim::NetworkConditions low = netsim::NetworkConditions::median_5g();
  low.rtt = milliseconds(10);
  netsim::NetworkConditions high = netsim::NetworkConditions::median_5g();
  high.rtt = milliseconds(80);
  const auto delays = std::vector<Duration>{hours(6)};
  const double low_gain =
      plt_reduction_summary(sites, low, StrategyKind::Catalyst,
                            StrategyKind::Baseline, delays)
          .mean();
  const double high_gain =
      plt_reduction_summary(sites, high, StrategyKind::Catalyst,
                            StrategyKind::Baseline, delays)
          .mean();
  EXPECT_GT(high_gain, low_gain);
}

TEST(ExperimentTest, CatalystLearnedCoversJsResourcesOnRevisit) {
  // Use a live site (dynamic fetches exist) and compare residual
  // revalidations.
  const auto site = test_site(6, /*clone=*/false);
  const auto c = netsim::NetworkConditions::median_5g();
  const auto plain =
      run_revisit_pair(site, c, StrategyKind::Catalyst, hours(1));
  const auto learned =
      run_revisit_pair(site, c, StrategyKind::CatalystLearned, hours(1));
  EXPECT_GT(learned.revisit.counters.from_sw_cache,
            plain.revisit.counters.from_sw_cache);
  EXPECT_LE(to_millis(learned.revisit.plt()),
            to_millis(plain.revisit.plt()) * 1.001);
}

TEST(StrategyTest, Names) {
  EXPECT_EQ(to_string(StrategyKind::Baseline), "baseline");
  EXPECT_EQ(to_string(StrategyKind::Catalyst), "catalyst");
  EXPECT_EQ(to_string(StrategyKind::RdrProxy), "rdr-proxy");
  EXPECT_EQ(to_string(StrategyKind::Oracle), "oracle");
}

}  // namespace
}  // namespace catalyst::core
