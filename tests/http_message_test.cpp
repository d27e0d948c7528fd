#include "http/message.h"

#include <gtest/gtest.h>

#include "http/serializer.h"

namespace catalyst::http {
namespace {

TEST(RequestTest, GetConvenience) {
  const Request req = Request::get("/a.css", "example.com");
  EXPECT_EQ(req.method, Method::Get);
  EXPECT_EQ(req.target, "/a.css");
  EXPECT_EQ(req.headers.get(kHost), "example.com");
}

TEST(RequestTest, WireSizeMatchesSerializedBytes) {
  Request req = Request::get("/path/to/thing?q=1", "h.example");
  req.headers.add("If-None-Match", "\"abcdef\"");
  req.body = "payload";
  EXPECT_EQ(req.wire_size(), serialize(req).size());
}

TEST(ResponseTest, WireSizeMatchesSerializedBytes) {
  Response resp = Response::make(Status::Ok);
  resp.headers.add(kContentType, "text/html");
  resp.body = "<html></html>";
  resp.finalize(TimePoint{} + seconds(5));
  EXPECT_EQ(resp.wire_size(), serialize(resp).size());
}

TEST(ResponseTest, DeclaredBodySizeGovernsWireSize) {
  Response resp = Response::make(Status::Ok);
  resp.body = "tiny stand-in";
  resp.declared_body_size = 50000;
  EXPECT_EQ(resp.body_wire_size(), 50000u);
  // Wire size = head + declared body.
  Response same_head = resp;
  same_head.declared_body_size = 0;
  EXPECT_EQ(resp.wire_size(),
            same_head.wire_size() - same_head.body.size() + 50000u);
}

TEST(ResponseTest, FinalizeSetsContentLengthAndDate) {
  Response resp = Response::make(Status::Ok);
  resp.body = "12345";
  resp.finalize(TimePoint{});
  EXPECT_EQ(resp.headers.get(kContentLength), "5");
  EXPECT_EQ(resp.headers.get(kDate), "Thu, 01 Jan 2026 00:00:00 GMT");
}

TEST(ResponseTest, CacheControlAccessor) {
  Response resp = Response::make(Status::Ok);
  EXPECT_EQ(resp.cache_control(), CacheControl{});
  resp.headers.set(kCacheControl, "no-store");
  EXPECT_TRUE(resp.cache_control().no_store);
}

TEST(ResponseTest, EtagAccessor) {
  Response resp = Response::make(Status::Ok);
  EXPECT_FALSE(resp.etag());
  resp.headers.set(kEtagHeader, "W/\"v3\"");
  const auto tag = resp.etag();
  ASSERT_TRUE(tag);
  EXPECT_TRUE(tag->weak);
  EXPECT_EQ(tag->value, "v3");
  resp.headers.set(kEtagHeader, "garbage");
  EXPECT_FALSE(resp.etag());
}

TEST(RequestTest, IfNoneMatchAccessor) {
  Request req = Request::get("/", "h");
  EXPECT_FALSE(req.if_none_match());
  req.headers.set(kIfNoneMatch, "\"a\"");
  const auto inm = req.if_none_match();
  ASSERT_TRUE(inm);
  EXPECT_EQ(inm->tags.size(), 1u);
}

TEST(StatusTest, Properties) {
  EXPECT_TRUE(is_cacheable_status(Status::Ok));
  EXPECT_TRUE(is_cacheable_status(Status::NotFound));
  EXPECT_FALSE(is_cacheable_status(Status::NotModified));
  EXPECT_FALSE(is_cacheable_status(Status::InternalServerError));
  EXPECT_EQ(reason_phrase(Status::NotModified), "Not Modified");
  EXPECT_EQ(code(Status::NotFound), 404);
}

}  // namespace
}  // namespace catalyst::http
