// Quickstart: load one synthetic page cold and again after six hours,
// with status-quo caching vs. CacheCatalyst, and print what happened.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cinttypes>
#include <cstdio>

#include "core/experiment.h"
#include "core/testbed.h"
#include "util/table.h"
#include "workload/sitegen.h"

using namespace catalyst;

namespace {

void describe(const char* label, const client::PageLoadResult& r) {
  const client::CacheCounters& c = r.counters;
  std::printf("  %-18s PLT %8.1f ms | %3u resources: %3" PRIu64
              " network, %3" PRIu64 " cache, %3" PRIu64 " 304, %3" PRIu64
              " sw, %2" PRIu64 " push | %s down, %u RTTs\n",
              label, to_millis(r.plt()), r.resources_total, c.from_network,
              c.from_cache, c.not_modified, c.from_sw_cache, c.from_push,
              format_bytes(r.bytes_downloaded).c_str(), r.rtts);
}

}  // namespace

int main() {
  // A synthetic "top-100" homepage: ~100 resources, realistic sizes,
  // CMS-default cache headers.
  workload::SitegenParams params;
  params.seed = 42;
  params.site_index = 7;
  auto site = workload::generate_site(params);
  std::printf("site %s: %zu resources, %s total\n", site->host().c_str(),
              site->resource_count(),
              format_bytes(site->total_bytes()).c_str());

  // Median 5G access: 60 Mbps down, 40 ms RTT (paper §4).
  const auto conditions = netsim::NetworkConditions::median_5g();
  std::printf("network: %s\n\n", conditions.label().c_str());

  for (const auto kind :
       {core::StrategyKind::Baseline, core::StrategyKind::Catalyst}) {
    std::printf("%s:\n", std::string(core::to_string(kind)).c_str());
    const auto outcome = core::run_revisit_pair(
        site, conditions, kind, hours(6));
    describe("cold load", outcome.cold);
    describe("revisit +6h", outcome.revisit);
    std::printf("\n");
  }

  // The headline comparison.
  const auto base =
      core::run_revisit_pair(site, conditions, core::StrategyKind::Baseline,
                             hours(6));
  const auto treat =
      core::run_revisit_pair(site, conditions, core::StrategyKind::Catalyst,
                             hours(6));
  const double base_ms = to_millis(base.revisit.plt());
  const double treat_ms = to_millis(treat.revisit.plt());
  std::printf("revisit PLT: %.1f ms -> %.1f ms  (%.1f%% reduction)\n",
              base_ms, treat_ms, 100.0 * (base_ms - treat_ms) / base_ms);
  return 0;
}
