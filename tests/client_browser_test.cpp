// Browser fetch-pipeline unit tests against a single-resource origin.
#include "client/browser.h"

#include <gtest/gtest.h>

#include "server/server.h"

namespace catalyst::client {
namespace {

class BrowserFixture : public ::testing::Test {
 protected:
  BrowserFixture() : net_(loop_) {
    netsim::HostSpec client_spec;
    client_spec.downlink = mbps(60);
    client_spec.uplink = mbps(12);
    net_.add_host("client", client_spec);
    net_.add_host("origin.test");
    net_.set_rtt("client", "origin.test", milliseconds(40));

    auto site = std::make_shared<server::Site>("origin.test");
    site->add_resource(std::make_unique<server::Resource>(
        "/r.css", http::ResourceClass::Css, 2000,
        [](std::uint64_t v) {
          return ".r { /* v" + std::to_string(v) + " */ }" +
                 std::string(1960, 'x');
        },
        server::ChangeProcess::periodic(hours(10), hours(10), days(10)),
        http::CacheControl::with_max_age(minutes(10))));
    site_ = site;
    server_.emplace(net_, site, server::ServerConfig{});
  }

  Browser make_browser(bool sw_enabled = false) {
    BrowserConfig config;
    config.service_workers_enabled = sw_enabled;
    return Browser(net_, config);
  }

  FetchOutcome fetch_now(Browser& browser, TimePoint at) {
    loop_.run();
    loop_.advance_to(at);
    FetchOutcome out;
    bool done = false;
    browser.fetch(*Url::parse("https://origin.test/r.css"), false,
                  std::nullopt, [&](FetchOutcome o) {
                    out = std::move(o);
                    done = true;
                  });
    loop_.run();
    EXPECT_TRUE(done);
    return out;
  }

  netsim::EventLoop loop_;
  netsim::Network net_;
  std::shared_ptr<server::Site> site_;
  std::optional<server::Server> server_;
};

TEST_F(BrowserFixture, ColdFetchGoesToNetworkAndStores) {
  Browser browser = make_browser();
  const auto outcome = fetch_now(browser, TimePoint{});
  EXPECT_EQ(outcome.source, netsim::FetchSource::Network);
  EXPECT_EQ(outcome.response.status, http::Status::Ok);
  EXPECT_TRUE(browser.http_cache().contains("https://origin.test/r.css"));
  // TLS handshake (2 RTT) + exchange (1 RTT) + transmission.
  EXPECT_GE(outcome.finish - outcome.start, milliseconds(120));
}

TEST_F(BrowserFixture, FreshHitServedLocally) {
  Browser browser = make_browser();
  fetch_now(browser, TimePoint{});
  const auto outcome = fetch_now(browser, TimePoint{} + minutes(5));
  EXPECT_EQ(outcome.source, netsim::FetchSource::BrowserCache);
  // No network: sub-millisecond.
  EXPECT_LT(outcome.finish - outcome.start, milliseconds(1));
}

TEST_F(BrowserFixture, StaleUnchangedRevalidatesTo304) {
  Browser browser = make_browser();
  fetch_now(browser, TimePoint{});
  browser.end_visit();
  const auto outcome = fetch_now(browser, TimePoint{} + hours(1));
  EXPECT_EQ(outcome.source, netsim::FetchSource::NotModified);
  EXPECT_EQ(outcome.response.status, http::Status::Ok);  // cached body
  EXPECT_FALSE(outcome.response.body.str().empty());
  // The 304 refreshed freshness: immediately fresh again.
  const auto again = fetch_now(browser, TimePoint{} + hours(1) + minutes(5));
  EXPECT_EQ(again.source, netsim::FetchSource::BrowserCache);
}

TEST_F(BrowserFixture, StaleChangedDownloadsNewVersion) {
  Browser browser = make_browser();
  const auto v0 = fetch_now(browser, TimePoint{});
  browser.end_visit();
  // Content changes at +10h.
  const auto outcome = fetch_now(browser, TimePoint{} + hours(11));
  EXPECT_EQ(outcome.source, netsim::FetchSource::Network);
  EXPECT_NE(outcome.response.body.str(), v0.response.body.str());
}

TEST_F(BrowserFixture, OracleValidatesWithoutNetwork) {
  Browser browser = make_browser();
  auto site = site_;
  netsim::EventLoop* loop = &loop_;
  browser.set_oracle([site, loop](const Url& url, const http::Etag& etag) {
    const server::Resource* r = site->find(url.path);
    return r != nullptr && r->etag_at(loop->now()).weak_equals(etag);
  });
  fetch_now(browser, TimePoint{});
  browser.end_visit();
  // Expired but unchanged: oracle serves instantly (no 304 round trip).
  const auto unchanged = fetch_now(browser, TimePoint{} + hours(1));
  EXPECT_EQ(unchanged.source, netsim::FetchSource::BrowserCache);
  EXPECT_LT(unchanged.finish - unchanged.start, milliseconds(1));
  browser.end_visit();
  // Changed: oracle skips the conditional request and downloads directly.
  const auto changed = fetch_now(browser, TimePoint{} + hours(11));
  EXPECT_EQ(changed.source, netsim::FetchSource::Network);
}

TEST_F(BrowserFixture, OracleRefetchesAnEntryFreshByTtlButChanged) {
  Browser browser = make_browser();
  auto site = site_;
  netsim::EventLoop* loop = &loop_;
  browser.set_oracle([site, loop](const Url& url, const http::Etag& etag) {
    const server::Resource* r = site->find(url.path);
    return r != nullptr && r->etag_at(loop->now()).weak_equals(etag);
  });
  // Record what reaches the origin, then let the server answer.
  std::vector<bool> conditional;
  netsim::RequestHandler serve = net_.host("origin.test").handler();
  net_.host("origin.test")
      .set_handler([&conditional, serve](const http::Request& request,
                                         auto respond) {
        conditional.push_back(request.headers.contains(http::kIfNoneMatch));
        serve(request, std::move(respond));
      });
  // Stored five minutes before the content changes at +10h, with a
  // ten-minute TTL: still fresh by its TTL two minutes after the change.
  const auto v0 = fetch_now(browser, TimePoint{} + hours(10) - minutes(5));
  browser.end_visit();
  EXPECT_EQ(browser.http_cache()
                .lookup("https://origin.test/r.css",
                        TimePoint{} + hours(10) + minutes(2))
                .decision,
            cache::LookupDecision::FreshHit);
  const auto changed =
      fetch_now(browser, TimePoint{} + hours(10) + minutes(2));
  EXPECT_EQ(changed.source, netsim::FetchSource::Network);
  EXPECT_EQ(changed.response.status, http::Status::Ok);
  EXPECT_NE(changed.response.body.str(), v0.response.body.str());
  EXPECT_EQ(conditional, (std::vector<bool>{false, false}));
}

TEST_F(BrowserFixture, ConcurrentLoadsRejected) {
  Browser browser = make_browser();
  browser.load_page(*Url::parse("https://origin.test/r.css"),
                    [](PageLoadResult) {});
  EXPECT_THROW(browser.load_page(*Url::parse("https://origin.test/r.css"),
                                 [](PageLoadResult) {}),
               std::logic_error);
  loop_.run();
}

}  // namespace
}  // namespace catalyst::client
