#include "html/scan.h"

#include <gtest/gtest.h>

#include "html/parser.h"
#include "util/hash.h"
#include "workload/sitegen.h"

namespace catalyst::html {
namespace {

/// The inline-script `@fetch` directives of a page, scanned directly.
std::vector<std::string> direct_inline_fetches(std::string_view page) {
  std::vector<std::string> out;
  parse(page)->for_each_element([&out](const Node& el) {
    if (el.is_element("script") && !el.has_attr("src")) {
      for (std::string& url : extract_js_fetches(el.text_content())) {
        out.push_back(std::move(url));
      }
    }
  });
  return out;
}

void expect_page_scan_matches(std::string_view page) {
  const PageScan& scan = scan_page(page, fnv1a64(page));
  EXPECT_EQ(scan.resources, extract_resources(*parse(page)));
  EXPECT_EQ(scan.inline_fetches, direct_inline_fetches(page));
}

TEST(ScanMemoTest, MatchesDirectScansOnEveryCatalogBody) {
  workload::SitegenParams params;
  params.seed = 7;
  int pages = 0, sheets = 0, scripts = 0;
  for (int index = 0; index < 4; ++index) {
    params.site_index = index;
    const auto site = workload::generate_site(params);
    for (const auto& [path, resource] : site->resources()) {
      // Several content versions: bodies change with the version salt.
      for (const int hours_in : {0, 30, 24 * 40}) {
        const TimePoint t = TimePoint{} + hours(hours_in);
        const std::string& body = resource->content_at(t);
        const std::uint64_t digest = resource->content_digest_at(t);
        switch (resource->resource_class()) {
          case http::ResourceClass::Html:
            expect_page_scan_matches(body);
            ++pages;
            break;
          case http::ResourceClass::Css:
            EXPECT_EQ(scan_css(body, digest), extract_css_references(body))
                << path;
            ++sheets;
            break;
          case http::ResourceClass::Script:
            EXPECT_EQ(scan_js(body, digest), extract_js_fetches(body))
                << path;
            ++scripts;
            break;
          default:
            break;
        }
      }
    }
  }
  EXPECT_GT(pages, 0);
  EXPECT_GT(sheets, 0);
  EXPECT_GT(scripts, 0);
}

TEST(ScanMemoTest, InlineFetchesFlattenInDocumentOrder) {
  const std::string page =
      "<html><head><link rel=\"stylesheet\" href=\"/a.css\">"
      "<script>/* @fetch /one.json */ /* @fetch /two.js */</script>"
      "<style>.x { background: url(/bg.webp) }</style></head>"
      "<body><script src=\"/ext.js\">/* @fetch /ignored.json */</script>"
      "<img src=\"/hero.webp\">"
      "<script>/* @fetch /three.webp */</script></body></html>";
  const PageScan& scan = scan_page(page, fnv1a64(page));
  EXPECT_EQ(scan.inline_fetches,
            (std::vector<std::string>{"/one.json", "/two.js",
                                      "/three.webp"}));
  ASSERT_EQ(scan.resources.size(), 4u);
  EXPECT_EQ(scan.resources[0].url, "/a.css");
  EXPECT_EQ(scan.resources[1].url, "/bg.webp");
  EXPECT_EQ(scan.resources[2].url, "/ext.js");
  EXPECT_EQ(scan.resources[3].url, "/hero.webp");
  expect_page_scan_matches(page);
}

TEST(ScanMemoTest, RepeatScansReturnTheSameEntry) {
  const std::string css = ".a { background: url(/a.png) }";
  const auto& first = scan_css(css, fnv1a64(css));
  const std::string copy = css;  // equal bytes at another address
  EXPECT_EQ(&scan_css(copy, fnv1a64(copy)), &first);
}

TEST(ScanMemoTest, EqualLengthBodiesGetTheirOwnResults) {
  const std::string a = ".a { background: url(/a.png) }";
  const std::string b = ".b { background: url(/b.png) }";
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(scan_css(a, fnv1a64(a))[0].url, "/a.png");
  EXPECT_EQ(scan_css(b, fnv1a64(b))[0].url, "/b.png");

  const std::string js1 = "/* @fetch /x.js */";
  const std::string js2 = "/* @fetch /y.js */";
  ASSERT_EQ(js1.size(), js2.size());
  EXPECT_EQ(scan_js(js1, fnv1a64(js1)),
            (std::vector<std::string>{"/x.js"}));
  EXPECT_EQ(scan_js(js2, fnv1a64(js2)),
            (std::vector<std::string>{"/y.js"}));

  const std::string p1 = "<img src=\"/p.webp\">";
  const std::string p2 = "<img src=\"/q.webp\">";
  ASSERT_EQ(p1.size(), p2.size());
  EXPECT_EQ(scan_page(p1, fnv1a64(p1)).resources[0].url, "/p.webp");
  EXPECT_EQ(scan_page(p2, fnv1a64(p2)).resources[0].url, "/q.webp");
}

TEST(ScanMemoTest, ClearDropsEveryEntry) {
  // Two bodies of one size under one digest (breaking the precondition on
  // purpose): while the first body's entry is memoized, the second gets
  // it; after a clear, the second is scanned.
  const std::string first = "/* @fetch /c1.js */";
  const std::string second = "/* @fetch /c2.js */";
  const std::uint64_t digest = fnv1a64(first);
  EXPECT_EQ(scan_js(first, digest), (std::vector<std::string>{"/c1.js"}));
  EXPECT_EQ(scan_js(second, digest), (std::vector<std::string>{"/c1.js"}));
  clear_scan_memo();
  EXPECT_EQ(scan_js(second, digest), (std::vector<std::string>{"/c2.js"}));
  clear_scan_memo();  // leave no entry under `first`'s key
}

}  // namespace
}  // namespace catalyst::html
