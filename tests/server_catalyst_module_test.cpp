#include "server/catalyst_module.h"

#include <gtest/gtest.h>

#include "server/static_handler.h"
#include "util/hash.h"

namespace catalyst::server {
namespace {

/// index.html -> a.css (+ hero.webp via HTML), a.css -> f.woff2 + bg.webp
/// and @imports sub.css; app.js is linked from HTML; lazy.json only ever
/// fetched by JS (not statically discoverable). Only bg.webp may change.
std::unique_ptr<Site> make_site(
    ChangeProcess bg_changes = ChangeProcess::never()) {
  auto site = std::make_unique<Site>("example.com");
  auto add = [&](const std::string& path, http::ResourceClass rc,
                 std::string content) {
    site->add_resource(std::make_unique<Resource>(
        path, rc, content.size(),
        [content = std::move(content)](std::uint64_t version) {
          return content + "<!-- v" + std::to_string(version) + " -->";
        },
        path == "/bg.webp" ? bg_changes : ChangeProcess::never(),
        http::CacheControl::revalidate_always()));
  };
  add("/index.html", http::ResourceClass::Html,
      "<html><head><link rel=\"stylesheet\" href=\"/a.css\"></head>"
      "<body><script src=\"/app.js\"></script>"
      "<img src=\"/hero.webp\">"
      "<img src=\"https://cdn.other.com/x.png\">"
      "</body></html>");
  add("/a.css", http::ResourceClass::Css,
      "@import \"/sub.css\";\n"
      "@font-face { src: url(\"/f.woff2\") }\n"
      ".bg { background: url(\"/bg.webp\") }\n");
  add("/sub.css", http::ResourceClass::Css, ".x { color: red }\n");
  add("/app.js", http::ResourceClass::Script,
      "/* @fetch /lazy.json */\n");
  add("/hero.webp", http::ResourceClass::Image, "hero");
  add("/bg.webp", http::ResourceClass::Image, "bg");
  add("/f.woff2", http::ResourceClass::Font, "font");
  add("/lazy.json", http::ResourceClass::Json, "{}");
  return site;
}

TEST(ResolveSameOriginTest, Cases) {
  EXPECT_EQ(resolve_same_origin("h.com", "/dir/page.html", "/abs.css"),
            "/abs.css");
  EXPECT_EQ(resolve_same_origin("h.com", "/dir/page.html", "rel.css"),
            "/dir/rel.css");
  EXPECT_EQ(resolve_same_origin("h.com", "/p", "https://h.com/x.css"),
            "/x.css");
  EXPECT_EQ(resolve_same_origin("h.com", "/p", "https://other.com/x.css"),
            "");
  EXPECT_EQ(resolve_same_origin("h.com", "/p", "//cdn.com/x.css"), "");
  EXPECT_EQ(resolve_same_origin("h.com", "/p", ""), "");
}

class CatalystModuleFixture : public ::testing::Test {
 protected:
  CatalystModuleFixture() : site_(make_site()) {}

  CatalystModule module(CatalystConfig config = {}) {
    return CatalystModule(*site_, config);
  }

  std::unique_ptr<Site> site_;
};

TEST_F(CatalystModuleFixture, MapCoversStaticClosureOnly) {
  CatalystModule mod = module();
  const Resource* html = site_->find("/index.html");
  const auto map = mod.build_map(*html, TimePoint{}, {});
  // HTML links + CSS closure, same-origin only; JS-fetched lazy.json and
  // the cross-origin image are absent.
  EXPECT_TRUE(map.find("/a.css"));
  EXPECT_TRUE(map.find("/app.js"));
  EXPECT_TRUE(map.find("/hero.webp"));
  EXPECT_TRUE(map.find("/sub.css"));
  EXPECT_TRUE(map.find("/f.woff2"));
  EXPECT_TRUE(map.find("/bg.webp"));
  EXPECT_FALSE(map.find("/lazy.json"));
  EXPECT_FALSE(map.find("/index.html"));
  EXPECT_EQ(map.size(), 6u);
}

TEST_F(CatalystModuleFixture, MapEtagsMatchCurrentResourceEtags) {
  CatalystModule mod = module();
  const auto map =
      mod.build_map(*site_->find("/index.html"), TimePoint{}, {});
  for (const auto& [path, etag] : map.entries()) {
    const Resource* r = site_->find(path);
    ASSERT_NE(r, nullptr) << path;
    EXPECT_TRUE(etag.weak_equals(r->etag_at(TimePoint{}))) << path;
  }
}

TEST_F(CatalystModuleFixture, CssClosureToggle) {
  CatalystConfig config;
  config.css_closure = false;
  CatalystModule mod = module(config);
  const auto map =
      mod.build_map(*site_->find("/index.html"), TimePoint{}, {});
  EXPECT_TRUE(map.find("/a.css"));
  EXPECT_FALSE(map.find("/f.woff2"));
  EXPECT_FALSE(map.find("/sub.css"));
}

TEST_F(CatalystModuleFixture, SessionLearningMergesJsResources) {
  CatalystConfig config;
  config.session_learning = true;
  CatalystModule mod = module(config);
  const auto map = mod.build_map(*site_->find("/index.html"), TimePoint{},
                                 {"/lazy.json", "/unknown.bin",
                                  "https://other.com/x.png"});
  EXPECT_TRUE(map.find("/lazy.json"));
  EXPECT_FALSE(map.find("/unknown.bin"));     // not a real resource
  EXPECT_EQ(map.size(), 7u);
}

TEST_F(CatalystModuleFixture, SessionLearningOffIgnoresLearnedUrls) {
  CatalystModule mod = module();
  const auto map = mod.build_map(*site_->find("/index.html"), TimePoint{},
                                 {"/lazy.json"});
  EXPECT_FALSE(map.find("/lazy.json"));
}

TEST_F(CatalystModuleFixture, DecorateHtmlAddsHeaderAndSwSnippet) {
  CatalystModule mod = module();
  StaticHandler handler(*site_);
  http::Response resp = handler.handle(
      http::Request::get("/index.html", "example.com"), TimePoint{});
  const ByteCount before = resp.body.size();
  const Duration cost =
      mod.decorate_html(resp, *site_->find("/index.html"), TimePoint{}, {});
  EXPECT_GT(cost, Duration::zero());
  ASSERT_TRUE(resp.headers.contains(http::kXEtagConfig));
  const auto map = http::EtagConfig::parse(
      *resp.headers.get(http::kXEtagConfig));
  ASSERT_TRUE(map);
  EXPECT_EQ(map->size(), 6u);
  // SW registration injected before </body>, Content-Length refreshed.
  EXPECT_GT(resp.body.size(), before);
  EXPECT_NE(resp.body.str().find("serviceWorker"), std::string::npos);
  EXPECT_NE(resp.body.str().find(CatalystModule::kSwPath), std::string::npos);
  EXPECT_LT(resp.body.str().find("serviceWorker"),
            resp.body.str().rfind("</body>"));
  EXPECT_EQ(resp.headers.get(http::kContentLength),
            std::to_string(resp.body.size()));
  // The digest is the decorated body's, also when a second serve
  // of the same version takes it from the memo.
  EXPECT_EQ(resp.body_digest(), fnv1a64(resp.body.str()));
  http::Response again = handler.handle(
      http::Request::get("/index.html", "example.com"), TimePoint{});
  mod.decorate_html(again, *site_->find("/index.html"), TimePoint{}, {});
  EXPECT_EQ(again.body.str(), resp.body.str());
  EXPECT_EQ(again.body_digest(), fnv1a64(again.body.str()));
}

TEST_F(CatalystModuleFixture, Decorate304CarriesMapWithoutBody) {
  CatalystModule mod = module();
  http::Response resp = http::Response::make(http::Status::NotModified);
  mod.decorate_html(resp, *site_->find("/index.html"), TimePoint{}, {});
  EXPECT_TRUE(resp.headers.contains(http::kXEtagConfig));
  EXPECT_TRUE(resp.body.str().empty());
}

/// Modeled compute of decorating one 304 for /index.html: the DOM scan
/// (charged only when the scan runs) plus the map assembly.
Duration decorate_cost(CatalystModule& mod, const Resource& html) {
  http::Response resp = http::Response::make(http::Status::NotModified);
  return mod.decorate_html(resp, html, TimePoint{}, {});
}

TEST_F(CatalystModuleFixture, ScanMemoizationAvoidsRescans) {
  CatalystModule mod = module();
  const Resource* html = site_->find("/index.html");
  const Duration scanned = decorate_cost(mod, *html);
  const Duration memoized = decorate_cost(mod, *html);
  EXPECT_LT(memoized, scanned);
  // What is left is the map assembly: 100 ns per entry.
  EXPECT_EQ(memoized, nanoseconds(600));
}

TEST_F(CatalystModuleFixture, MemoizationOffRescansEveryServe) {
  CatalystConfig config;
  config.memoize_scans = false;
  CatalystModule mod = module(config);
  const Resource* html = site_->find("/index.html");
  const Duration first = decorate_cost(mod, *html);
  EXPECT_GT(first, nanoseconds(600));
  EXPECT_EQ(decorate_cost(mod, *html), first);
}

/// The X-Etag-Config a 304 for `html` carries at `now`.
std::string map_header(CatalystModule& mod, const Resource& html,
                       TimePoint now) {
  http::Response resp = http::Response::make(http::Status::NotModified);
  mod.decorate_html(resp, html, now, {});
  return std::string(*resp.headers.get(http::kXEtagConfig));
}

TEST(CatalystModuleChangeTest, OneModuleFollowsLinkedResourceChanges) {
  // bg.webp, reached only through a.css, changes at 1h, 3h, 5h, ...
  const auto site =
      make_site(ChangeProcess::periodic(hours(2), hours(1), days(1)));
  const Resource& html = *site->find("/index.html");
  const TimePoint change = TimePoint{} + hours(1);
  const std::vector<TimePoint> times = {
      TimePoint{}, change - nanoseconds(1), change, change + minutes(30)};
  CatalystModule mod(*site, {});
  std::vector<std::string> headers;
  for (const TimePoint t : times) {
    CatalystModule fresh(*site, {});
    headers.push_back(map_header(mod, html, t));
    EXPECT_EQ(headers.back(), map_header(fresh, html, t));
    // Once the page's scan is memoized, a serve costs 100 ns per entry.
    http::Response resp = http::Response::make(http::Status::NotModified);
    EXPECT_EQ(mod.decorate_html(resp, html, t, {}), nanoseconds(600));
  }
  EXPECT_EQ(headers[0], headers[1]);
  EXPECT_NE(headers[1], headers[2]);  // bg.webp's ETag moved
  EXPECT_EQ(headers[2], headers[3]);
}

TEST_F(CatalystModuleFixture, SwScriptServedWithRevalidationPolicy) {
  CatalystModule mod = module();
  const auto resp = mod.serve_sw_script(TimePoint{});
  EXPECT_EQ(resp.status, http::Status::Ok);
  EXPECT_EQ(resp.body.size(), CatalystModule::kSwScriptSize);
  EXPECT_TRUE(resp.etag());
  EXPECT_TRUE(resp.cache_control().no_cache);
}

}  // namespace
}  // namespace catalyst::server
