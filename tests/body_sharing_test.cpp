// Response bodies are shared by handle from the origin's version memo
// through every cache. These tests pin the two halves of that contract:
// copies share one buffer, and no serve path ever writes through it (a
// changed body is always a new buffer).
#include <gtest/gtest.h>

#include "cache/sw_cache.h"
#include "html/generate.h"
#include "netsim/transport.h"
#include "server/server.h"
#include "util/hash.h"
#include "workload/sitegen.h"

namespace catalyst {
namespace {

TEST(BodyTest, CopiesShareOneBuffer) {
  const http::Body body(std::string(30'000, 'x'));
  const http::Body copy = body;
  EXPECT_EQ(copy.str().data(), body.str().data());

  http::Response response = http::Response::make(http::Status::Ok);
  response.body = body;
  const http::Response copied = response;
  http::Response assigned;
  assigned = copied;
  EXPECT_EQ(copied.body.str().data(), body.str().data());
  EXPECT_EQ(assigned.body.str().data(), body.str().data());
  EXPECT_EQ(assigned.body_digest(), body.digest());
}

TEST(BodyTest, DigestIsFnv1aOfTheBytesEmptyIncluded) {
  for (const std::string& bytes :
       {std::string(), std::string("x"), std::string("payload"),
        std::string(30'000, 'y')}) {
    const http::Body body(bytes);
    EXPECT_EQ(body.str(), bytes);
    EXPECT_EQ(body.size(), bytes.size());
    EXPECT_EQ(body.digest(), fnv1a64(body.str()));
  }
  const http::Body none;
  EXPECT_TRUE(none.str().empty());
  EXPECT_EQ(none.digest(), fnv1a64(""));
  EXPECT_EQ(http::Response{}.body_digest(), fnv1a64(""));
}

class OriginBodyTest : public ::testing::Test {
 protected:
  OriginBodyTest() : net_(loop_) {
    net_.add_host("client");
    net_.add_host("example.com");
    net_.set_rtt("client", "example.com", milliseconds(10));
    site_ = workload::make_figure1_site();
  }

  http::Response exchange(http::Request request) {
    netsim::Connection conn(net_, "client", "example.com", /*tls=*/false,
                            netsim::Protocol::H1);
    std::optional<http::Response> got;
    conn.send_request(std::move(request),
                      [&](http::Response resp) { got = std::move(resp); });
    loop_.run();
    EXPECT_TRUE(got.has_value());
    return got ? std::move(*got) : http::Response{};
  }

  netsim::EventLoop loop_;
  netsim::Network net_;
  std::shared_ptr<server::Site> site_;
};

TEST_F(OriginBodyTest, StaticServesShareTheVersionBuffer) {
  const server::Resource& css = *site_->find("/a.css");
  server::StaticHandler handler(*site_);
  const TimePoint t{};
  const http::Response first =
      handler.handle(http::Request::get("/a.css", "example.com"), t);
  const http::Response second =
      handler.handle(http::Request::get("/a.css", "example.com"), t);
  EXPECT_EQ(first.body.str().data(), css.content_at(t).data());
  EXPECT_EQ(second.body.str().data(), css.content_at(t).data());
  EXPECT_EQ(first.body_digest(), css.body_at(t).digest());
}

TEST_F(OriginBodyTest, ReflectedServesLeaveTheOriginVersionAlone) {
  server::ServerConfig config;
  config.enable_catalyst = true;
  config.reflect_forwarded_host = true;
  server::Server server(net_, site_, config);
  // The page goes through decorate_html's injection, the stylesheet
  // straight from the resource's version memo: reflection must write
  // through neither.
  for (const char* path : {"/index.html", "/a.css"}) {
    SCOPED_TRACE(path);
    const server::Resource& resource = *site_->find(path);
    const TimePoint t = loop_.now();
    const std::string content = resource.content_at(t);
    const std::uint64_t digest = resource.body_at(t).digest();
    const http::Response clean_before =
        exchange(http::Request::get(path, "example.com"));

    http::Request poisoned = http::Request::get(path, "example.com");
    poisoned.headers.set(http::kXForwardedHost, "evil.example");
    const http::Response reflected = exchange(std::move(poisoned));
    EXPECT_NE(reflected.body.str().find("<!--reflect:evil.example-->"),
              std::string::npos);
    EXPECT_EQ(reflected.body_digest(), fnv1a64(reflected.body.str()));
    EXPECT_EQ(reflected.headers.get(http::kContentLength),
              std::to_string(reflected.body_wire_size()));

    EXPECT_EQ(resource.content_at(loop_.now()), content);
    EXPECT_EQ(resource.body_at(loop_.now()).digest(), digest);
    const http::Response clean =
        exchange(http::Request::get(path, "example.com"));
    EXPECT_EQ(clean.body.str().find("<!--reflect:"), std::string::npos);
    EXPECT_EQ(clean.body.str(), clean_before.body.str());
    EXPECT_EQ(clean.body_digest(), fnv1a64(clean.body.str()));
  }
}

TEST_F(OriginBodyTest, DecoratedServesInjectIntoACopy) {
  const server::Resource& page = *site_->find("/index.html");
  server::StaticHandler handler(*site_);
  server::CatalystModule module(*site_, {});
  const TimePoint t{};
  const auto serve = [&] {
    http::Response resp =
        handler.handle(http::Request::get("/index.html", "example.com"), t);
    module.decorate_html(resp, page, t, {});
    return resp;
  };
  std::string expected = page.content_at(t);
  server::CatalystModule::inject_registration(expected);
  for (int i = 0; i < 2; ++i) {
    const http::Response served = serve();
    EXPECT_EQ(served.body.str(), expected);
    EXPECT_EQ(served.body_digest(), fnv1a64(expected));
    EXPECT_NE(served.body.str().data(), page.content_at(t).data());
  }
  // The origin's own version is untouched.
  EXPECT_EQ(page.body_at(t).digest(), fnv1a64(page.content_at(t)));
  EXPECT_EQ(page.content_at(t).find("serviceWorker"), std::string::npos);
}

TEST_F(OriginBodyTest, SwScriptIsBuiltOnceAndKeepsItsEtag) {
  server::CatalystModule one(*site_, {});
  server::CatalystModule other(*site_, {});
  const http::Response first = one.serve_sw_script(TimePoint{});
  const http::Response second = other.serve_sw_script(TimePoint{});
  EXPECT_EQ(first.body.str().data(), second.body.str().data());
  const std::string script = html::make_js(
      {}, server::CatalystModule::kSwScriptSize, /*seed=*/0xCC57);
  EXPECT_EQ(first.body.str(), script);
  EXPECT_EQ(first.headers.get(http::kEtagHeader),
            http::make_content_etag(script).to_string());
  EXPECT_EQ(second.headers.get(http::kEtagHeader),
            first.headers.get(http::kEtagHeader));
}

TEST(SwCacheBodyTest, CorruptingOneEntryLeavesTheSharedBufferServable) {
  http::Response response = http::Response::make(http::Status::Ok);
  response.body = std::string(10'000, 'z');
  response.headers.set(http::kEtagHeader, "\"v1\"");
  response.finalize(TimePoint{});

  cache::SwCache cache;
  ASSERT_TRUE(cache.put("/a", response));
  ASSERT_TRUE(cache.put("/b", response));
  cache.corrupt("/a");
  const cache::SwCache::Match rotted = cache.match("/a", http::Etag{"v1"});
  EXPECT_EQ(rotted.response, nullptr);
  EXPECT_TRUE(rotted.integrity_failure);

  const cache::SwCache::Match intact = cache.match("/b", http::Etag{"v1"});
  ASSERT_NE(intact.response, nullptr);
  EXPECT_FALSE(intact.integrity_failure);
  EXPECT_EQ(intact.response->body.str().data(), response.body.str().data());
  EXPECT_EQ(intact.response->body_digest(), fnv1a64(response.body.str()));
}

}  // namespace
}  // namespace catalyst
