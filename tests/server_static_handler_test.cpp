#include "server/static_handler.h"

#include <gtest/gtest.h>

#include "http/date.h"

namespace catalyst::server {
namespace {

std::unique_ptr<Site> make_site() {
  auto site = std::make_unique<Site>("example.com");
  site->add_resource(std::make_unique<Resource>(
      "/a.css", http::ResourceClass::Css, 50,
      [](std::uint64_t v) { return "css v" + std::to_string(v); },
      ChangeProcess::periodic(hours(1), hours(1), days(1)),
      http::CacheControl::with_max_age(minutes(10))));
  site->add_resource(std::make_unique<Resource>(
      "/big.webp", http::ResourceClass::Image, KiB(200),
      [](std::uint64_t v) { return "img v" + std::to_string(v); },
      ChangeProcess::never(), http::CacheControl::never_store()));
  return site;
}

class StaticHandlerFixture : public ::testing::Test {
 protected:
  StaticHandlerFixture() : site_(make_site()), handler_(*site_) {}
  std::unique_ptr<Site> site_;
  StaticHandler handler_;
};

TEST_F(StaticHandlerFixture, ServesFullResponseWithValidators) {
  const auto resp = handler_.handle(
      http::Request::get("/a.css", "example.com"), TimePoint{});
  EXPECT_EQ(resp.status, http::Status::Ok);
  EXPECT_EQ(resp.body.str(), "css v0");
  EXPECT_TRUE(resp.etag());
  EXPECT_EQ(resp.headers.get(http::kCacheControl), "max-age=600");
  EXPECT_TRUE(resp.headers.contains(http::kLastModified));
  EXPECT_TRUE(resp.headers.contains(http::kDate));
  EXPECT_EQ(resp.headers.get(http::kContentType), "text/css");
}

TEST_F(StaticHandlerFixture, DeclaredSizeForOpaqueClasses) {
  const auto resp = handler_.handle(
      http::Request::get("/big.webp", "example.com"), TimePoint{});
  EXPECT_EQ(resp.body_wire_size(), KiB(200));
  EXPECT_LT(resp.body.size(), 100u);
  EXPECT_EQ(resp.headers.get(http::kContentLength),
            std::to_string(KiB(200)));
}

TEST_F(StaticHandlerFixture, NotFoundForUnknownPath) {
  const auto resp = handler_.handle(
      http::Request::get("/nope.js", "example.com"), TimePoint{});
  EXPECT_EQ(resp.status, http::Status::NotFound);
}

TEST_F(StaticHandlerFixture, QueryStringIgnoredForLookup) {
  const auto resp = handler_.handle(
      http::Request::get("/a.css?v=123", "example.com"), TimePoint{});
  EXPECT_EQ(resp.status, http::Status::Ok);
}

TEST_F(StaticHandlerFixture, ConditionalGetMatchingEtagYields304) {
  const auto full = handler_.handle(
      http::Request::get("/a.css", "example.com"), TimePoint{});
  http::Request conditional = http::Request::get("/a.css", "example.com");
  conditional.headers.set(http::kIfNoneMatch, full.etag()->to_string());

  const auto resp = handler_.handle(conditional, TimePoint{} + minutes(30));
  EXPECT_EQ(resp.status, http::Status::NotModified);
  EXPECT_TRUE(resp.body.str().empty());
  EXPECT_EQ(*resp.etag(), *full.etag());
  // Cache-refresh headers ride along.
  EXPECT_EQ(resp.headers.get(http::kCacheControl), "max-age=600");
}

TEST_F(StaticHandlerFixture, ConditionalGetAfterChangeYields200) {
  const auto full = handler_.handle(
      http::Request::get("/a.css", "example.com"), TimePoint{});
  http::Request conditional = http::Request::get("/a.css", "example.com");
  conditional.headers.set(http::kIfNoneMatch, full.etag()->to_string());

  // Content changes at +1h.
  const auto resp =
      handler_.handle(conditional, TimePoint{} + hours(1) + minutes(1));
  EXPECT_EQ(resp.status, http::Status::Ok);
  EXPECT_EQ(resp.body.str(), "css v1");
  EXPECT_NE(resp.etag()->value, full.etag()->value);
}

TEST_F(StaticHandlerFixture, BytesSentTracksBodies) {
  // A 200 puts the declared body on the wire; a 304 puts none.
  const auto full = handler_.handle(
      http::Request::get("/big.webp", "example.com"), TimePoint{});
  EXPECT_EQ(full.body_wire_size(), KiB(200));
  http::Request conditional = http::Request::get("/big.webp", "example.com");
  conditional.headers.set(http::kIfNoneMatch, full.etag()->to_string());
  EXPECT_EQ(handler_.handle(conditional, TimePoint{}).body_wire_size(), 0u);
}

}  // namespace
}  // namespace catalyst::server
