// Property-based sweeps over seeds and network conditions: the system-wide
// invariants from DESIGN.md §5, checked on many generated sites.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.h"
#include "edge/pop.h"
#include "workload/sitegen.h"

namespace catalyst::core {
namespace {

struct PropertyCase {
  std::uint64_t seed;
  int site_index;
  bool clone;
  double down_mbps;
  double rtt_ms;
  Duration delay;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " site=" << c.site_index
      << (c.clone ? " clone" : " live") << " " << c.down_mbps << "Mbps/"
      << c.rtt_ms << "ms delay=" << to_seconds(c.delay) << "s";
}

class StrategyProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  std::shared_ptr<server::Site> make_site() const {
    workload::SitegenParams p;
    p.seed = GetParam().seed;
    p.site_index = GetParam().site_index;
    p.clone_static_snapshot = GetParam().clone;
    return workload::generate_site(p);
  }

  netsim::NetworkConditions conditions() const {
    netsim::NetworkConditions c;
    c.downlink = mbps(GetParam().down_mbps);
    c.uplink = mbps(GetParam().down_mbps / 5.0);
    c.rtt = milliseconds_f(GetParam().rtt_ms);
    return c;
  }
};

// --- Staleness safety (the paper's correctness claim) ------------------
// Everything the Service Worker served from its cache carries the ETag the
// origin had when the page load began: catalyst never shows stale bytes.
TEST_P(StrategyProperties, CatalystNeverServesStaleBytes) {
  const auto site = make_site();
  Testbed tb = make_testbed(site, conditions(), StrategyKind::Catalyst);
  (void)run_visit(tb, TimePoint{});
  const TimePoint revisit_at = TimePoint{} + GetParam().delay;
  const auto revisit = run_visit(tb, revisit_at);

  const auto& sw = tb.browser->service_worker(site->host());
  for (const auto& trace : revisit.trace.traces()) {
    if (trace.source != netsim::FetchSource::SwCache) continue;
    const auto stored = sw.cache().stored_etag(trace.url);
    ASSERT_TRUE(stored) << trace.url;
    const server::Resource* origin = site->find(trace.url);
    ASSERT_NE(origin, nullptr) << trace.url;
    EXPECT_TRUE(stored->weak_equals(origin->etag_at(revisit_at)))
        << trace.url << " served stale content";
  }
}

// --- Completeness: every site resource reachable from the page loads ---
TEST_P(StrategyProperties, ColdLoadTouchesOnlyKnownResources) {
  const auto site = make_site();
  Testbed tb = make_testbed(site, conditions(), StrategyKind::Baseline);
  const auto cold = run_visit(tb, TimePoint{});
  EXPECT_GT(cold.resources_total, 0u);
  for (const auto& trace : cold.trace.traces()) {
    EXPECT_NE(site->find(trace.url), nullptr)
        << trace.url << " fetched but not on the site";
  }
}

// --- Determinism: same inputs, identical outputs to the nanosecond -----
TEST_P(StrategyProperties, DeterministicPlt) {
  const auto site = make_site();
  const auto a = run_revisit_pair(site, conditions(),
                                  StrategyKind::Catalyst, GetParam().delay);
  const auto b = run_revisit_pair(site, conditions(),
                                  StrategyKind::Catalyst, GetParam().delay);
  EXPECT_EQ(a.cold.plt(), b.cold.plt());
  EXPECT_EQ(a.revisit.plt(), b.revisit.plt());
  EXPECT_EQ(a.revisit.bytes_downloaded, b.revisit.bytes_downloaded);
  EXPECT_EQ(a.revisit.rtts, b.revisit.rtts);
}

// --- Monotonicity: Catalyst never loses to Baseline on revisits --------
TEST_P(StrategyProperties, CatalystBeatsOrTiesBaselineOnRevisit) {
  const auto site = make_site();
  const auto base = run_revisit_pair(site, conditions(),
                                     StrategyKind::Baseline,
                                     GetParam().delay);
  const auto cat = run_revisit_pair(site, conditions(),
                                    StrategyKind::Catalyst,
                                    GetParam().delay);
  // Allow 2% for header overhead + SW interception latency.
  EXPECT_LT(to_millis(cat.revisit.plt()),
            to_millis(base.revisit.plt()) * 1.02);
}

// --- Oracle is the floor ------------------------------------------------
TEST_P(StrategyProperties, OracleLowerBoundsCacheStrategies) {
  const auto site = make_site();
  const auto oracle = run_revisit_pair(site, conditions(),
                                       StrategyKind::Oracle,
                                       GetParam().delay);
  const auto cat = run_revisit_pair(site, conditions(),
                                    StrategyKind::Catalyst,
                                    GetParam().delay);
  EXPECT_LT(to_millis(oracle.revisit.plt()),
            to_millis(cat.revisit.plt()) * 1.02);
}

// --- Paint/interactivity metrics are well-ordered -----------------------
TEST_P(StrategyProperties, PaintMetricsOrdered) {
  const auto site = make_site();
  for (const StrategyKind kind :
       {StrategyKind::Baseline, StrategyKind::Catalyst}) {
    const auto outcome =
        run_revisit_pair(site, conditions(), kind, GetParam().delay);
    for (const auto* r : {&outcome.cold, &outcome.revisit}) {
      EXPECT_GE(r->first_paint, r->start) << to_string(kind);
      EXPECT_LE(r->first_paint, r->onload) << to_string(kind);
      EXPECT_GE(r->interactive, r->first_paint) << to_string(kind);
      EXPECT_LE(r->interactive, r->onload) << to_string(kind);
    }
  }
}

// --- Staleness: catalyst never serves more stale bytes than baseline ---
TEST_P(StrategyProperties, CatalystStaleServesBoundedByBaseline) {
  const auto site = make_site();
  const auto base = run_revisit_pair(site, conditions(),
                                     StrategyKind::Baseline,
                                     GetParam().delay);
  const auto cat = run_revisit_pair(site, conditions(),
                                    StrategyKind::Catalyst,
                                    GetParam().delay);
  EXPECT_LE(cat.revisit.counters.stale_served,
            base.revisit.counters.stale_served);
  if (GetParam().clone) {
    // Frozen content: nothing can be stale for anyone.
    EXPECT_EQ(base.revisit.counters.stale_served, 0u);
    EXPECT_EQ(cat.revisit.counters.stale_served, 0u);
  }
}

// --- Byte accounting: revisits never download more than cold loads -----
TEST_P(StrategyProperties, CacheStrategiesNeverIncreaseBytes) {
  const auto site = make_site();
  for (const StrategyKind kind :
       {StrategyKind::Baseline, StrategyKind::Catalyst,
        StrategyKind::Oracle}) {
    const auto outcome =
        run_revisit_pair(site, conditions(), kind, GetParam().delay);
    EXPECT_LE(outcome.revisit.bytes_downloaded,
              outcome.cold.bytes_downloaded)
        << to_string(kind);
  }
}

// --- Tallies: each load's counts agree with its own trace ---------------
// The page loader counts every recorded resource into the load's
// CacheCounters, OracleCounters and FaultCounters; the trace lists the
// same resources one entry each, so the two must agree field by field.
void expect_tallies_match_trace(const client::PageLoadResult& r,
                                const std::string& label) {
  const auto& traces = r.trace.traces();
  const auto count = [&traces](auto&& pred) {
    return static_cast<std::uint64_t>(
        std::count_if(traces.begin(), traces.end(), pred));
  };
  const auto from = [&count](netsim::FetchSource source) {
    return count([source](const netsim::FetchTrace& t) {
      return t.source == source;
    });
  };
  EXPECT_EQ(r.counters.total(), r.resources_total) << label;
  EXPECT_EQ(r.resources_total, traces.size()) << label;
  EXPECT_EQ(r.counters.from_network, from(netsim::FetchSource::Network))
      << label;
  EXPECT_EQ(r.counters.from_cache, from(netsim::FetchSource::BrowserCache))
      << label;
  EXPECT_EQ(r.counters.not_modified, from(netsim::FetchSource::NotModified))
      << label;
  EXPECT_EQ(r.counters.from_sw_cache, from(netsim::FetchSource::SwCache))
      << label;
  EXPECT_EQ(r.counters.from_push, from(netsim::FetchSource::Push)) << label;
  EXPECT_EQ(r.oracle.checked, count([](const netsim::FetchTrace& t) {
              return t.oracle_class != netsim::ServeClass::Unchecked;
            }))
      << label;
  EXPECT_EQ(r.faults.failed_loads, count([](const netsim::FetchTrace& t) {
              return t.status >= 500;
            }))
      << label;
  EXPECT_EQ(r.negative_hits, count([](const netsim::FetchTrace& t) {
              return (t.status == 404 || t.status == 410) &&
                     (t.source == netsim::FetchSource::BrowserCache ||
                      t.source == netsim::FetchSource::SwCache);
            }))
      << label;
}

TEST_P(StrategyProperties, TalliesAgreeWithTrace) {
  const auto site = make_site();
  // rdr-proxy is exempt: its bundle counts resources it never traces.
  for (const StrategyKind kind :
       {StrategyKind::Baseline, StrategyKind::Catalyst,
        StrategyKind::CatalystLearned, StrategyKind::PushAll,
        StrategyKind::PushLearned, StrategyKind::PushDigest,
        StrategyKind::EarlyHints, StrategyKind::Oracle}) {
    const auto outcome =
        run_revisit_pair(site, conditions(), kind, GetParam().delay);
    expect_tallies_match_trace(outcome.cold, std::string(to_string(kind)));
    expect_tallies_match_trace(outcome.revisit, std::string(to_string(kind)));
  }

  // Every counter live at once: faults, the oracle, negative caching of
  // dead links, and a shared edge PoP in front of the origin.
  workload::SitegenParams p;
  p.seed = GetParam().seed;
  p.site_index = GetParam().site_index;
  p.clone_static_snapshot = GetParam().clone;
  p.errors.dead_link_fraction = 0.2;
  p.errors.gone_link_fraction = 0.1;
  netsim::NetworkConditions faulty = conditions();
  faulty.faults.loss_rate = 0.02;
  faulty.faults.stall_rate = 0.005;
  faulty.faults.fault_seed = GetParam().seed;
  edge::EdgeConfig ec;
  ec.negative.enabled = true;
  edge::EdgePop pop(ec);
  StrategyOptions opts;
  opts.byte_oracle = true;
  opts.negative_cache.enabled = true;
  opts.edge_pop = &pop;
  Testbed tb = make_testbed(workload::generate_site(p), faulty,
                            StrategyKind::Catalyst, opts);
  for (const Duration at : {Duration::zero(), GetParam().delay,
                            GetParam().delay + seconds(30)}) {
    expect_tallies_match_trace(run_visit(tb, TimePoint{} + at),
                               "all features on");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyProperties,
    ::testing::Values(
        PropertyCase{11, 0, true, 60, 40, hours(6)},
        PropertyCase{11, 1, true, 8, 40, minutes(1)},
        PropertyCase{12, 2, false, 60, 10, hours(1)},
        PropertyCase{13, 3, false, 25, 80, days(1)},
        PropertyCase{14, 4, true, 60, 80, days(7)},
        PropertyCase{15, 5, false, 8, 20, hours(6)},
        PropertyCase{16, 6, true, 25, 20, days(1)},
        PropertyCase{17, 7, false, 60, 40, minutes(1)}));

}  // namespace
}  // namespace catalyst::core
