// Phase-breakdown unit + engine-integration invariants:
//
//  * PhaseHistogram folds samples into exact integer buckets and merges
//    identically for any shard split / merge order.
//  * Client-side phases partition fetch time: summed over a visit pair,
//    dns+connect+tls+queue+ttfb+transfer+sw+cache+backoff equals the sum
//    of per-fetch (finish - start) from the trace log, as exact integers.
//  * Attaching a Recorder is a pure observation: results are bit-identical
//    with and without one.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "obs/histogram.h"
#include "obs/phase.h"
#include "obs/recorder.h"
#include "workload/sitegen.h"

namespace catalyst {
namespace {

using obs::Phase;
using obs::PhaseHistogram;

TEST(PhaseHistogramTest, CountsTotalsAndQuantiles) {
  PhaseHistogram h;
  h.add(microseconds(10));
  h.add(microseconds(100));
  h.add(milliseconds(1));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.total_ns(), 10'000u + 100'000u + 1'000'000u);
  const double p50 = h.quantile_ms(50);
  const double p99 = h.quantile_ms(99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  // The largest sample is 1 ms; its bucket's upper edge is < 1.334 ms
  // (log10 axis, 8 buckets per decade).
  EXPECT_LT(p99, 1.334);
}

TEST(PhaseHistogramTest, IgnoresNonPositiveDurations) {
  PhaseHistogram h;
  h.add(Duration::zero());
  h.add(Duration{-5});
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile_ms(50), 0.0);
}

TEST(PhaseHistogramTest, ClampsToAxisEnds) {
  PhaseHistogram h;
  h.add(Duration{1});       // 0.001 µs — below the 1 µs axis floor
  h.add(seconds(10'000));   // above the 100 s axis ceiling
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(PhaseHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(PhaseHistogramTest, MergeIsExactForAnySplitAndOrder) {
  std::vector<Duration> samples;
  for (int i = 1; i <= 500; ++i) {
    samples.push_back(microseconds((i * 37) % 100'000 + 1));
  }
  PhaseHistogram whole;
  for (const Duration d : samples) whole.add(d);

  PhaseHistogram parts[3];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    parts[i % 3].add(samples[i]);
  }
  PhaseHistogram fwd = parts[0];
  fwd.merge(parts[1]);
  fwd.merge(parts[2]);
  PhaseHistogram rev = parts[2];
  rev.merge(parts[1]);
  rev.merge(parts[0]);

  for (std::size_t b = 0; b < PhaseHistogram::kBuckets; ++b) {
    EXPECT_EQ(fwd.bucket(b), whole.bucket(b)) << "bucket " << b;
    EXPECT_EQ(rev.bucket(b), whole.bucket(b)) << "bucket " << b;
  }
  EXPECT_EQ(fwd.count(), whole.count());
  EXPECT_EQ(fwd.total_ns(), whole.total_ns());
  EXPECT_EQ(fwd.quantile_ms(95), rev.quantile_ms(95));
  EXPECT_EQ(fwd.quantile_ms(95), whole.quantile_ms(95));
}

TEST(PhaseTimelineTest, AccumulatesAndTotals) {
  obs::PhaseTimeline t;
  t.add(Phase::kConnect, milliseconds(10));
  t.add(Phase::kTtfb, milliseconds(5));
  t.add(Phase::kTtfb, milliseconds(5));
  EXPECT_EQ(t.at(Phase::kConnect), milliseconds(10));
  EXPECT_EQ(t.at(Phase::kTtfb), milliseconds(10));
  EXPECT_EQ(t.total(), milliseconds(20));
}

TEST(PhaseBreakdownTest, ClientTotalExcludesServerSidePhases) {
  obs::PhaseBreakdown b;
  b.record(Phase::kTtfb, milliseconds(4));
  b.record(Phase::kEdgeLookup, milliseconds(3));
  b.record(Phase::kFlashIo, milliseconds(2));
  // EdgeLookup/FlashIo decompose the client's Ttfb; adding them to the
  // client sum would double-count that time.
  EXPECT_EQ(b.client_total_ns(), milliseconds(4).count());
  EXPECT_TRUE(b.any());
}

TEST(RecorderTest, TimelineCommitSkipsEmptyPhases) {
  obs::Recorder rec;
  obs::PhaseTimeline t;
  t.add(Phase::kTtfb, milliseconds(1));
  rec.record(t);
  EXPECT_EQ(rec.breakdown().of(Phase::kTtfb).count(), 1u);
  for (const Phase p : obs::kAllPhases) {
    if (p == Phase::kTtfb) continue;
    EXPECT_TRUE(rec.breakdown().of(p).empty());
  }
  rec.reset();
  EXPECT_FALSE(rec.breakdown().any());
}

std::shared_ptr<server::Site> test_site(int index) {
  workload::SitegenParams p;
  p.seed = 7;
  p.site_index = index;
  p.clone_static_snapshot = true;
  return workload::generate_site(p);
}

TEST(BreakdownIntegrationTest, ClientPhasesSumToTracedFetchTime) {
  obs::Recorder rec;
  core::StrategyOptions opts;
  opts.phase_recorder = &rec;
  const auto outcome = core::run_revisit_pair(
      test_site(0), netsim::NetworkConditions::median_5g(),
      core::StrategyKind::Baseline, hours(6), opts);

  std::int64_t traced_ns = 0;
  for (const client::PageLoadResult* r : {&outcome.cold, &outcome.revisit}) {
    for (const netsim::FetchTrace& t : r->trace.traces()) {
      traced_ns += (t.finish - t.start).count();
    }
  }
  ASSERT_GT(traced_ns, 0);
  // Exact integer accounting: every nanosecond of every fetch lands in
  // exactly one client-side phase.
  EXPECT_EQ(rec.breakdown().client_total_ns(), traced_ns);
}

TEST(BreakdownIntegrationTest, RecorderIsAPureObserver) {
  const auto plain = core::run_revisit_pair(
      test_site(1), netsim::NetworkConditions::median_5g(),
      core::StrategyKind::Catalyst, hours(6));
  obs::Recorder rec;
  core::StrategyOptions opts;
  opts.phase_recorder = &rec;
  const auto observed = core::run_revisit_pair(
      test_site(1), netsim::NetworkConditions::median_5g(),
      core::StrategyKind::Catalyst, hours(6), opts);

  EXPECT_EQ(plain.cold.plt(), observed.cold.plt());
  EXPECT_EQ(plain.revisit.plt(), observed.revisit.plt());
  EXPECT_EQ(plain.revisit.rtts, observed.revisit.rtts);
  EXPECT_EQ(plain.revisit.bytes_downloaded, observed.revisit.bytes_downloaded);
  EXPECT_TRUE(rec.breakdown().any());
}

TEST(BreakdownIntegrationTest, CatalystRecordsServiceWorkerPhases) {
  obs::Recorder rec;
  core::StrategyOptions opts;
  opts.phase_recorder = &rec;
  const auto outcome = core::run_revisit_pair(
      test_site(2), netsim::NetworkConditions::median_5g(),
      core::StrategyKind::Catalyst, hours(6), opts);
  ASSERT_GT(outcome.revisit.counters.from_sw_cache, 0u);
  // Every SW cache serve passed through the kSwDecision phase.
  EXPECT_GE(rec.breakdown().of(Phase::kSwDecision).count(),
            outcome.revisit.counters.from_sw_cache);
}

}  // namespace
}  // namespace catalyst
