// FIG1 — regenerates the request timelines of the paper's Figure 1 on the
// exact worked example site (index.html, a.css, b.js, c.js, d.jpg):
//   (a) first visit,
//   (b) revisit two hours later under status-quo caching,
//   (c) the same revisit with CacheCatalyst (the "optimized scenario").
#include <cinttypes>
#include <cstdio>

#include "bench_common.h"
#include "core/testbed.h"

using namespace catalyst;

namespace {

void print_visit(const char* title, const client::PageLoadResult& result) {
  std::printf("%s\n", title);
  std::printf("%s", result.trace.render_waterfall().c_str());
  const client::CacheCounters& c = result.counters;
  std::printf("  PLT %.1f ms | %" PRIu64 " network, %" PRIu64 " cache, %" PRIu64
              " 304, %" PRIu64 " sw-cache | %s down, %u RTTs\n\n",
              to_millis(result.plt()), c.from_network, c.from_cache,
              c.not_modified, c.from_sw_cache,
              format_bytes(result.bytes_downloaded).c_str(), result.rtts);
}

}  // namespace

int main() {
  const auto conditions = netsim::NetworkConditions::median_5g();
  std::printf("Figure 1 — request timelines on the worked example "
              "(%s, revisit after 2 h; d.jpg changed 1 h in)\n\n",
              conditions.label().c_str());

  // (a) + (b): status-quo caching.
  auto base = core::make_testbed(workload::make_figure1_site(), conditions,
                                 core::StrategyKind::Baseline);
  print_visit("(a) first visit — cold cache",
              core::run_visit(base, TimePoint{}));
  print_visit("(b) revisit +2h — current caching "
              "(a.css fresh; b.js no-cache -> 304; d.jpg expired+changed)",
              core::run_visit(base, TimePoint{} + hours(2)));

  // (c): CacheCatalyst.
  auto cat = core::make_testbed(workload::make_figure1_site(), conditions,
                                core::StrategyKind::Catalyst);
  (void)core::run_visit(cat, TimePoint{});
  print_visit("(c) revisit +2h — CacheCatalyst "
              "(unchanged resources served instantly from the SW cache)",
              core::run_visit(cat, TimePoint{} + hours(2)));
  return 0;
}
