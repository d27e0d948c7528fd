// Building a site by hand with the public API: resources with real
// content generators, change processes and cache policies, then measuring
// how CacheCatalyst behaves on it. This is the "adopt the library for
// your own experiments" example.
#include <cinttypes>
#include <cstdio>

#include "core/experiment.h"
#include "core/testbed.h"
#include "html/generate.h"
#include "server/site.h"
#include "util/strings.h"

using namespace catalyst;

int main() {
  // --- 1. Describe the site --------------------------------------------
  auto site = std::make_shared<server::Site>("shop.example");
  site->set_index_path("/");

  // A stylesheet that references a font; deployed weekly.
  site->add_resource(std::make_unique<server::Resource>(
      "/css/main.css", http::ResourceClass::Css, KiB(40),
      [](std::uint64_t version) {
        return html::make_css({}, {"/fonts/brand.woff2"}, {}, KiB(40),
                              0xC0FFEE + version);
      },
      server::ChangeProcess::periodic(days(7), days(3), days(60)),
      // The developer was conservative: one-hour TTL on a weekly asset.
      http::CacheControl::with_max_age(hours(1))));

  // The brand font: effectively immutable, but shipped with no-cache
  // because nobody dared set a TTL.
  site->add_resource(std::make_unique<server::Resource>(
      "/fonts/brand.woff2", http::ResourceClass::Font, KiB(60),
      [](std::uint64_t version) {
        return "font-bytes v" + std::to_string(version);
      },
      server::ChangeProcess::never(),
      http::CacheControl::revalidate_always()));

  // An app bundle that fetches a price feed when it runs.
  site->add_resource(std::make_unique<server::Resource>(
      "/js/app.js", http::ResourceClass::Script, KiB(120),
      [](std::uint64_t version) {
        return html::make_js({"/api/prices.json"}, KiB(120),
                             0xAB + version);
      },
      server::ChangeProcess::periodic(days(14), days(5), days(60)),
      http::CacheControl::with_max_age(hours(6))));

  // The price feed changes every few minutes and must never be cached.
  site->add_resource(std::make_unique<server::Resource>(
      "/api/prices.json", http::ResourceClass::Json, KiB(4),
      [](std::uint64_t version) {
        return "{\"rev\":" + std::to_string(version) + "}";
      },
      server::ChangeProcess::periodic(minutes(5), minutes(2), days(60)),
      http::CacheControl::never_store()));

  // Product photos: immutable.
  for (int i = 0; i < 12; ++i) {
    site->add_resource(std::make_unique<server::Resource>(
        str_format("/img/product%d.webp", i), http::ResourceClass::Image,
        KiB(45),
        [i](std::uint64_t version) {
          return str_format("photo %d v%llu", i,
                            static_cast<unsigned long long>(version));
        },
        server::ChangeProcess::never(),
        http::CacheControl::with_max_age(minutes(30))));
  }

  // The home page ties it together.
  site->add_resource(std::make_unique<server::Resource>(
      "/", http::ResourceClass::Html, KiB(30),
      [](std::uint64_t version) {
        html::HtmlBuilder page("shop.example");
        page.add_stylesheet("/css/main.css");
        page.add_script("/js/app.js");
        for (int i = 0; i < 12; ++i) {
          page.add_image(str_format("/img/product%d.webp", i));
        }
        page.add_comment(str_format(
            "rev %llu", static_cast<unsigned long long>(version)));
        page.pad_to(KiB(30), 0x5104 + version);
        return page.build();
      },
      server::ChangeProcess::periodic(hours(4), hours(1), days(60)),
      http::CacheControl::revalidate_always()));

  std::printf("site %s: %zu resources, %s\n\n", site->host().c_str(),
              site->resource_count(),
              format_bytes(site->total_bytes()).c_str());

  // --- 2. Measure both strategies over a day of revisits ----------------
  const auto conditions = netsim::NetworkConditions::median_5g();
  for (const auto kind :
       {core::StrategyKind::Baseline, core::StrategyKind::Catalyst}) {
    auto tb = core::make_testbed(site, conditions, kind);
    std::printf("%s:\n", std::string(core::to_string(kind)).c_str());
    TimePoint at{};
    const auto cold = core::run_visit(tb, at);
    std::printf("  t=0      cold   PLT %7.1f ms\n", to_millis(cold.plt()));
    for (const Duration delay : {hours(2), hours(8), hours(24)}) {
      const auto visit = core::run_visit(tb, TimePoint{} + delay);
      const client::CacheCounters& c = visit.counters;
      std::printf("  t=%-5s revisit PLT %7.1f ms  (%2" PRIu64 " net, %2" PRIu64
                  " cache, %2" PRIu64 " 304, %2" PRIu64 " sw)\n",
                  format_duration(delay).c_str(), to_millis(visit.plt()),
                  c.from_network, c.from_cache, c.not_modified,
                  c.from_sw_cache);
    }
    std::printf("\n");
  }

  std::printf(
      "Note how the no-cache font costs the baseline an RTT on every "
      "visit while\nCacheCatalyst serves it instantly — without anyone "
      "having to pick a TTL.\n");
  return 0;
}
