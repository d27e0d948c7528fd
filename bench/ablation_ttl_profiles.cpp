// ABL-PROF — the paper's "caching without developer interaction" argument
// quantified: how much of catalyst's advantage is really *misconfiguration
// repair*? We sweep the TTL-assignment profile of the workload:
//   conservative-cms   default CMS headers (the wild west the studies
//                      measured — the paper's implicit workload)
//   developer-tuned    a diligent developer whose TTLs track true change
//                      intervals (the best the status quo can do)
//   always-revalidate  every resource no-cache (worst case for RTTs)
// If catalyst ≈ baseline-with-perfect-TTLs, the contribution is "perfect
// caching with zero developer effort" — exactly the paper's §6 pitch.
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"

using namespace catalyst;
using namespace catalyst::bench;

int main() {
  const int n_sites = site_count(30);
  const auto conditions = netsim::NetworkConditions::median_5g();
  const auto delays = core::paper_revisit_delays();

  const server::TtlProfile profiles[] = {
      server::TtlProfile::ConservativeCms,
      server::TtlProfile::DeveloperTuned,
      server::TtlProfile::AlwaysRevalidate,
  };

  Table table(str_format(
      "TTL-profile sweep at %s (%d live sites x 5 delays): revisit PLT",
      conditions.label().c_str(), n_sites));
  table.set_header({"ttl profile", "baseline ms", "catalyst ms",
                    "reduction", "baseline stale/visit"});
  for (const auto profile : profiles) {
    Summary base, cat, reduction, stale;
    for (int i = 0; i < n_sites; ++i) {
      workload::SitegenParams params;
      params.seed = 2024;
      params.site_index = i;
      params.ttl_profile = profile;
      const auto site = workload::generate_site(params);
      for (const Duration delay : delays) {
        const auto b = core::run_revisit_pair(
            site, conditions, core::StrategyKind::Baseline, delay);
        const auto c = core::run_revisit_pair(
            site, conditions, core::StrategyKind::Catalyst, delay);
        const double bm = to_millis(b.revisit.plt());
        const double cm = to_millis(c.revisit.plt());
        base.add(bm);
        cat.add(cm);
        reduction.add(100.0 * (bm - cm) / bm);
        stale.add(b.revisit.counters.stale_served);
      }
    }
    table.add_row({std::string(server::to_string(profile)),
                   ms(base.mean()), ms(cat.mean()),
                   str_format("%+.1f%% ±%.1f", reduction.mean(),
                              reduction.ci95_halfwidth()),
                   str_format("%.2f", stale.mean())});
  }
  table.print();
  std::printf(
      "\nReading: catalyst's PLT barely depends on the TTL profile (the "
      "map replaces\nTTLs), while the baseline ranges from bad "
      "(conservative CMS, no-cache) to\ndecent (developer-tuned). The "
      "remaining catalyst-vs-tuned gap is the\nirreducible revalidation "
      "RTTs plus stale risk that even perfect TTLs carry.\n");
  return 0;
}
