// ABL-DESIGN — ablations of CacheCatalyst's own design choices:
//   * CSS closure off  (map covers HTML-linked resources only),
//   * session learning on (paper §6 extension for JS-fetched resources),
//   * scan memoization off (server re-parses the DOM on every serve).
// Reports revisit PLT, map coverage, and modeled server compute.
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"

using namespace catalyst;
using namespace catalyst::bench;

namespace {

struct Variant {
  const char* name;
  core::StrategyKind kind;
  core::StrategyOptions options;
};

}  // namespace

int main() {
  const int n_sites = site_count(30);
  const auto sites = make_corpus(n_sites, /*clone=*/true);
  const auto conditions = netsim::NetworkConditions::median_5g();
  const Duration delay = hours(6);

  core::StrategyOptions no_closure;
  no_closure.catalyst_css_closure = false;
  core::StrategyOptions no_memo;
  no_memo.catalyst_memoize = false;

  const Variant variants[] = {
      {"baseline", core::StrategyKind::Baseline, {}},
      {"catalyst (full)", core::StrategyKind::Catalyst, {}},
      {"catalyst, no css closure", core::StrategyKind::Catalyst,
       no_closure},
      {"catalyst + session learning", core::StrategyKind::CatalystLearned,
       {}},
      {"catalyst, no scan memoization", core::StrategyKind::Catalyst,
       no_memo},
  };

  Table table(str_format(
      "CacheCatalyst design ablations at %s, revisit +6 h (%d sites)",
      conditions.label().c_str(), n_sites));
  table.set_header({"variant", "revisit ms", "sw hits", "304s",
                    "server compute ms"});
  for (const Variant& v : variants) {
    Summary plt, sw_hits, not_modified, compute;
    for (const auto& site : sites) {
      core::Testbed tb = core::make_testbed(site, conditions, v.kind,
                                            v.options);
      (void)core::run_visit(tb, TimePoint{});
      const auto revisit = core::run_visit(tb, TimePoint{} + delay);
      plt.add(to_millis(revisit.plt()));
      sw_hits.add(revisit.counters.from_sw_cache);
      not_modified.add(revisit.counters.not_modified);
      compute.add(to_millis(tb.origin->stats().catalyst_compute));
    }
    table.add_row({v.name, ms(plt.mean()),
                   str_format("%.1f", sw_hits.mean()),
                   str_format("%.1f", not_modified.mean()),
                   str_format("%.3f", compute.mean())});
  }
  table.print();
  std::printf(
      "\nExpected: dropping the CSS closure leaves fonts/background images "
      "uncovered\n(fewer SW hits); session learning covers JS-fetched "
      "resources (more SW hits);\ndisabling memoization multiplies server "
      "compute without changing client PLT\nmaterially.\n");
  return 0;
}
