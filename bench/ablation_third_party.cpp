// ABL-3P — cross-origin coverage loss (paper §6, future-work item 2):
// resources on third-party origins cannot appear in the main origin's
// X-Etag-Config map, so CacheCatalyst degrades to status-quo behaviour
// for them. Sweeps the third-party fraction and reports the reduction.
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"

using namespace catalyst;
using namespace catalyst::bench;

int main() {
  const int n_sites = site_count(25);
  const auto conditions = netsim::NetworkConditions::median_5g();
  const Duration delay = hours(6);

  Table table(str_format(
      "Third-party coverage loss at %s, revisit +6 h (%d sites)",
      conditions.label().c_str(), n_sites));
  table.set_header({"third-party share", "origins", "catalyst reduction",
                    "sw hits", "map-covered share"});

  for (const double fraction : {0.0, 0.15, 0.30, 0.50}) {
    Summary reduction, sw_hits, covered_share;
    for (int i = 0; i < n_sites; ++i) {
      workload::SitegenParams params;
      params.seed = 2024;
      params.site_index = i;
      params.clone_static_snapshot = true;
      params.third_party_fraction = fraction;
      const auto bundle = workload::generate_site_bundle(params);

      const auto base = core::run_revisit_pair(
          bundle, conditions, core::StrategyKind::Baseline, delay);
      const auto cat = core::run_revisit_pair(
          bundle, conditions, core::StrategyKind::Catalyst, delay);
      const double bm = to_millis(base.revisit.plt());
      const double cm = to_millis(cat.revisit.plt());
      reduction.add(100.0 * (bm - cm) / bm);
      sw_hits.add(cat.revisit.counters.from_sw_cache);
      covered_share.add(
          100.0 * cat.revisit.counters.from_sw_cache /
          std::max(1u, cat.revisit.resources_total));
    }
    std::size_t tp_origins = 0;
    {
      workload::SitegenParams params;
      params.seed = 2024;
      params.clone_static_snapshot = true;
      params.third_party_fraction = fraction;
      tp_origins =
          workload::generate_site_bundle(params).third_party.size();
    }
    table.add_row({str_format("%.0f%%", fraction * 100),
                   std::to_string(tp_origins),
                   str_format("%+.1f%% ±%.1f", reduction.mean(),
                              reduction.ci95_halfwidth()),
                   str_format("%.1f", sw_hits.mean()),
                   str_format("%.1f%%", covered_share.mean())});
  }
  table.print();
  std::printf(
      "\nExpected: the reduction decays as content moves off-origin — the "
      "quantified\ncost of leaving cross-origin resources to future work. "
      "(The paper's own\nevaluation hosted everything on one origin, i.e. "
      "the 0%% row.)\n");
  return 0;
}
