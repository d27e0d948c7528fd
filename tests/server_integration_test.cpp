// Integration tests of the composed origin server (Server class): request
// routing, catalyst decoration on the wire, SW-script serving, push
// emission, and session-learning plumbing via Cookie/Referer headers.
#include <gtest/gtest.h>

#include "netsim/transport.h"
#include "util/bloom.h"
#include "server/server.h"
#include "workload/sitegen.h"

namespace catalyst::server {
namespace {

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() : net_(loop_) {
    net_.add_host("client");
    net_.add_host("example.com");
    net_.set_rtt("client", "example.com", milliseconds(10));
    site_ = workload::make_figure1_site();
  }

  void start_server(ServerConfig config) {
    server_.emplace(net_, site_, config);
  }

  http::Response exchange(http::Request request,
                          netsim::Protocol protocol = netsim::Protocol::H1,
                          std::vector<netsim::PushedResponse>* pushes =
                              nullptr,
                          std::vector<std::string>* hints = nullptr) {
    netsim::Connection::ServerEvents events;
    events.on_push = [&](const std::string&, netsim::PushedResponse push) {
      if (pushes) pushes->push_back(std::move(push));
    };
    events.on_hints = [&](const std::string&,
                          const std::vector<std::string>& urls) {
      if (hints) *hints = urls;
    };
    netsim::Connection conn(net_, "client", "example.com", /*tls=*/false,
                            protocol, /*resolve_dns=*/false,
                            std::move(events));
    std::optional<http::Response> got;
    conn.send_request(std::move(request),
                      [&](http::Response resp) { got = std::move(resp); });
    loop_.run();
    EXPECT_TRUE(got.has_value());
    return std::move(*got);
  }

  http::Request with_session(http::Request req,
                             const std::string& sid,
                             const std::string& referer = "") {
    req.headers.set("Cookie", make_session_cookie(sid));
    if (!referer.empty()) req.headers.set("Referer", referer);
    return req;
  }

  netsim::EventLoop loop_;
  netsim::Network net_;
  std::shared_ptr<Site> site_;
  std::optional<Server> server_;
};

TEST_F(ServerFixture, ServesStaticContent) {
  start_server({});
  const auto resp =
      exchange(http::Request::get("/a.css", "example.com"));
  EXPECT_EQ(resp.status, http::Status::Ok);
  EXPECT_EQ(resp.headers.get(http::kContentType), "text/css");
  EXPECT_FALSE(resp.headers.contains(http::kXEtagConfig));
}

TEST_F(ServerFixture, ProcessingDelayApplied) {
  start_server({});
  const TimePoint t0 = loop_.now();
  exchange(http::Request::get("/a.css", "example.com"));
  // Handshake (1 RTT) + exchange (1 RTT) + 500 us processing +
  // transmission.
  EXPECT_GE(loop_.now() - t0, milliseconds(10 + 10) + microseconds(500));
}

TEST_F(ServerFixture, CatalystDecoratesHtmlOnly) {
  ServerConfig config;
  config.enable_catalyst = true;
  start_server(config);
  const auto html =
      exchange(http::Request::get("/index.html", "example.com"));
  ASSERT_TRUE(html.headers.contains(http::kXEtagConfig));
  const auto map =
      http::EtagConfig::parse(*html.headers.get(http::kXEtagConfig));
  ASSERT_TRUE(map);
  EXPECT_TRUE(map->find("/a.css"));
  EXPECT_TRUE(map->find("/b.js"));
  EXPECT_NE(html.body.str().find("serviceWorker"), std::string::npos);

  const auto css = exchange(http::Request::get("/a.css", "example.com"));
  EXPECT_FALSE(css.headers.contains(http::kXEtagConfig));
}

TEST_F(ServerFixture, CatalystDecorates304) {
  ServerConfig config;
  config.enable_catalyst = true;
  start_server(config);
  const auto first =
      exchange(http::Request::get("/index.html", "example.com"));
  http::Request conditional =
      http::Request::get("/index.html", "example.com");
  // The injected snippet changes the body, so the decorated response's
  // ETag differs from the raw resource's; revalidate with the raw one.
  conditional.headers.set(http::kIfNoneMatch,
                          site_->find("/index.html")
                              ->etag_at(loop_.now())
                              .to_string());
  const auto revalidated = exchange(std::move(conditional));
  EXPECT_EQ(revalidated.status, http::Status::NotModified);
  EXPECT_TRUE(revalidated.headers.contains(http::kXEtagConfig));
  EXPECT_TRUE(revalidated.body.str().empty());
  (void)first;
}

TEST_F(ServerFixture, ServesSwScript) {
  ServerConfig config;
  config.enable_catalyst = true;
  start_server(config);
  const auto resp = exchange(http::Request::get(
      std::string(CatalystModule::kSwPath), "example.com"));
  EXPECT_EQ(resp.status, http::Status::Ok);
  EXPECT_EQ(resp.headers.get(http::kContentType),
            "application/javascript");
  EXPECT_TRUE(resp.cache_control().no_cache);
}

TEST_F(ServerFixture, SwPathIs404WithoutCatalyst) {
  start_server({});
  const auto resp = exchange(http::Request::get(
      std::string(CatalystModule::kSwPath), "example.com"));
  EXPECT_EQ(resp.status, http::Status::NotFound);
}

TEST_F(ServerFixture, PushAllEmitsPushesOnH2) {
  ServerConfig config;
  config.push_policy = PushPolicy::All;
  start_server(config);
  std::vector<netsim::PushedResponse> pushes;
  exchange(http::Request::get("/index.html", "example.com"),
           netsim::Protocol::H2, &pushes);
  ASSERT_EQ(pushes.size(), 2u);  // a.css + b.js (static closure)
  EXPECT_EQ(pushes[0].target, "/a.css");
}

TEST_F(ServerFixture, NoPushesOnH1) {
  ServerConfig config;
  config.push_policy = PushPolicy::All;
  start_server(config);
  std::vector<netsim::PushedResponse> pushes;
  exchange(http::Request::get("/index.html", "example.com"),
           netsim::Protocol::H1, &pushes);
  EXPECT_TRUE(pushes.empty());
}

TEST_F(ServerFixture, SessionLearningFlowsIntoMap) {
  ServerConfig config;
  config.enable_catalyst = true;
  config.catalyst.session_learning = true;
  config.track_sessions = true;
  start_server(config);

  // Visit 1: HTML, then a JS-discovered fetch attributed via Referer.
  exchange(with_session(http::Request::get("/index.html", "example.com"),
                        "u1"));
  exchange(with_session(http::Request::get("/d.jpg", "example.com"), "u1",
                        "https://example.com/index.html"));

  // Visit 2: the map now covers the learned resource.
  const auto html = exchange(with_session(
      http::Request::get("/index.html", "example.com"), "u1"));
  const auto map =
      http::EtagConfig::parse(*html.headers.get(http::kXEtagConfig));
  ASSERT_TRUE(map);
  EXPECT_TRUE(map->find("/d.jpg"));
  EXPECT_EQ(server_->sessions().session_count(), 1u);
}

TEST_F(ServerFixture, SessionsIsolatedByCookie) {
  ServerConfig config;
  config.enable_catalyst = true;
  config.catalyst.session_learning = true;
  config.track_sessions = true;
  start_server(config);
  exchange(with_session(http::Request::get("/index.html", "example.com"),
                        "u1"));
  exchange(with_session(http::Request::get("/d.jpg", "example.com"), "u1",
                        "https://example.com/index.html"));
  // A different user's map does not contain u1's learned resources.
  const auto html = exchange(with_session(
      http::Request::get("/index.html", "example.com"), "u2"));
  const auto map =
      http::EtagConfig::parse(*html.headers.get(http::kXEtagConfig));
  ASSERT_TRUE(map);
  EXPECT_FALSE(map->find("/d.jpg"));
}

TEST_F(ServerFixture, EarlyHintsAnnounceStaticClosure) {
  ServerConfig config;
  config.early_hints = true;
  start_server(config);
  std::vector<std::string> hints;
  const auto resp = exchange(
      http::Request::get("/index.html", "example.com"),
      netsim::Protocol::H1, nullptr, &hints);
  EXPECT_EQ(resp.status, http::Status::Ok);
  ASSERT_EQ(hints.size(), 2u);
  EXPECT_EQ(hints[0], "/a.css");
  EXPECT_EQ(hints[1], "/b.js");
  // Subresources carry no hints.
  hints.clear();
  exchange(http::Request::get("/a.css", "example.com"),
           netsim::Protocol::H1, nullptr, &hints);
  EXPECT_TRUE(hints.empty());
}

TEST_F(ServerFixture, DigestPolicySuppressesKnownPaths) {
  ServerConfig config;
  config.push_policy = PushPolicy::Digest;
  start_server(config);

  // Digest claiming /a.css is cached: only /b.js gets pushed.
  BloomFilter digest = BloomFilter::for_entries(4, 0.01);
  digest.insert("/a.css");
  http::Request req = http::Request::get("/index.html", "example.com");
  req.headers.set("Cache-Digest", digest.serialize());
  std::vector<netsim::PushedResponse> pushes;
  exchange(std::move(req), netsim::Protocol::H2, &pushes);
  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_EQ(pushes[0].target, "/b.js");

  // No digest header: everything pushed.
  pushes.clear();
  exchange(http::Request::get("/index.html", "example.com"),
           netsim::Protocol::H2, &pushes);
  EXPECT_EQ(pushes.size(), 2u);

  // Malformed digest: treated as absent (push everything).
  pushes.clear();
  http::Request bad = http::Request::get("/index.html", "example.com");
  bad.headers.set("Cache-Digest", "garbage");
  exchange(std::move(bad), netsim::Protocol::H2, &pushes);
  EXPECT_EQ(pushes.size(), 2u);
}

TEST_F(ServerFixture, StatsAccumulate) {
  ServerConfig config;
  config.enable_catalyst = true;
  start_server(config);
  const http::Response html =
      exchange(http::Request::get("/index.html", "example.com"));
  EXPECT_TRUE(html.headers.contains(http::kXEtagConfig));
  const Duration after_html = server_->stats().catalyst_compute;
  EXPECT_GT(after_html, Duration::zero());
  // Subresource serves build no map and add no Catalyst compute.
  const http::Response css =
      exchange(http::Request::get("/a.css", "example.com"));
  EXPECT_FALSE(css.headers.contains(http::kXEtagConfig));
  EXPECT_EQ(server_->stats().catalyst_compute, after_html);
}

}  // namespace
}  // namespace catalyst::server
