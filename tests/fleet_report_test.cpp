#include "fleet/report.h"

#include <gtest/gtest.h>

namespace catalyst::fleet {
namespace {

FleetReport sample_report(double plt_base) {
  FleetReport r;
  r.users = 2;
  r.visits = 5;
  r.revisits = 3;
  r.counters = client::CacheCounters{10, 5, 3, 20, 0, 1};
  r.bytes_on_wire = 1000;
  r.baseline_bytes_on_wire = 1500;
  r.rtts = 40;
  r.baseline_rtts = 90;
  r.plt_ms.add(plt_base);
  r.plt_ms.add(plt_base + 10.0);
  r.plt_reduction_pct.add(25.0);
  r.per_user_plt_reduction_pct.add(25.0);
  r.per_user_hit_rate_pct.add(80.0);
  return r;
}

TEST(FleetReportTest, SavedDeltasCanGoNegative) {
  FleetReport r;
  r.rtts = 100;
  r.baseline_rtts = 60;
  r.bytes_on_wire = 500;
  r.baseline_bytes_on_wire = 200;
  EXPECT_EQ(r.rtts_saved(), -40);
  EXPECT_EQ(r.bytes_saved(), -300);
}

TEST(FleetReportTest, MergeOfSplitsEqualsSingleAccumulation) {
  FleetReport whole = sample_report(100.0);
  whole.merge(sample_report(200.0));

  FleetReport again = sample_report(100.0);
  FleetReport other = sample_report(200.0);
  again.merge(other);

  EXPECT_EQ(again.serialize(), whole.serialize());
  EXPECT_EQ(again.users, 4u);
  EXPECT_EQ(again.visits, 10u);
  EXPECT_EQ(again.counters.total(), 2u * (10 + 5 + 3 + 20));
  EXPECT_EQ(again.rtts_saved(), 100);
  EXPECT_EQ(again.plt_ms.count(), 4u);
}

TEST(FleetReportTest, MergeIsAssociative) {
  // The runner folds shard reports incrementally as they complete:
  // ((a+b)+c) must equal (a+(b+c)) byte-for-byte, or the incremental
  // merge would leak scheduling into the report.
  FleetReport a = sample_report(100.0);
  FleetReport b = sample_report(200.0);
  FleetReport c = sample_report(300.0);

  FleetReport left = a;  // ((a+b)+c)
  left.merge(b);
  left.merge(c);

  FleetReport bc = b;  // (a+(b+c))
  bc.merge(c);
  FleetReport right = a;
  right.merge(bc);

  EXPECT_EQ(left.serialize(), right.serialize());
  EXPECT_EQ(left.users, right.users);
  EXPECT_EQ(left.plt_ms.count(), right.plt_ms.count());
}

TEST(FleetReportTest, MergeIsOrderSensitiveInSampleOrderOnly) {
  // a.merge(b) and b.merge(a) hold the same multiset of samples — every
  // aggregate agrees — but the canonical byte-stable serialization is
  // defined by merge order, which is why the runner merges by shard index.
  FleetReport ab = sample_report(100.0);
  ab.merge(sample_report(200.0));
  FleetReport ba = sample_report(200.0);
  ba.merge(sample_report(100.0));
  EXPECT_DOUBLE_EQ(ab.plt_ms.median(), ba.plt_ms.median());
  EXPECT_DOUBLE_EQ(ab.plt_ms.sum(), ba.plt_ms.sum());
}

TEST(FleetReportTest, SerializeIsStableAndParseable) {
  const FleetReport r = sample_report(100.0);
  const std::string s1 = r.serialize();
  const std::string s2 = r.serialize();
  EXPECT_EQ(s1, s2);

  const auto parsed = Json::parse(s1);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("users")->as_number(), 2.0);
  EXPECT_EQ(parsed->find("rtts_saved")->as_number(), 50.0);
  const Json* plt = parsed->find("revisit_plt_ms");
  ASSERT_NE(plt, nullptr);
  EXPECT_EQ(plt->find("count")->as_number(), 2.0);
  EXPECT_EQ(plt->find("p50")->as_number(), 105.0);
}

TEST(FleetReportTest, EmptySummariesSerializeWithoutStats) {
  const FleetReport r;  // no baseline run, no samples anywhere
  const auto parsed = Json::parse(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  const Json* reduction = parsed->find("plt_reduction_pct");
  ASSERT_NE(reduction, nullptr);
  EXPECT_EQ(reduction->find("count")->as_number(), 0.0);
  EXPECT_EQ(reduction->find("mean"), nullptr);
}

TEST(FleetReportTest, RenderTableMentionsKeyRows) {
  const std::string table = sample_report(100.0).render_table("t");
  EXPECT_NE(table.find("users"), std::string::npos);
  EXPECT_NE(table.find("rtts saved vs baseline"), std::string::npos);
  EXPECT_NE(table.find("per-user hit rate"), std::string::npos);
}

}  // namespace
}  // namespace catalyst::fleet
