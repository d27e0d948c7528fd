#include "http/conditional.h"

#include <gtest/gtest.h>

#include "http/date.h"

namespace catalyst::http {
namespace {

Request conditional_request(std::string_view inm) {
  Request req = Request::get("/r", "h");
  req.headers.set(kIfNoneMatch, inm);
  return req;
}

TEST(ConditionalTest, NoValidatorsMeansNotConditional) {
  const Request req = Request::get("/r", "h");
  EXPECT_EQ(evaluate_conditional(req, Etag{"x", false}, std::nullopt),
            ConditionalOutcome::NotConditional);
}

TEST(ConditionalTest, MatchingEtagIsNotModified) {
  EXPECT_EQ(evaluate_conditional(conditional_request("\"x\""),
                                 Etag{"x", false}, std::nullopt),
            ConditionalOutcome::NotModified);
}

TEST(ConditionalTest, MismatchedEtagIsModified) {
  EXPECT_EQ(evaluate_conditional(conditional_request("\"y\""),
                                 Etag{"x", false}, std::nullopt),
            ConditionalOutcome::Modified);
}

TEST(ConditionalTest, WeakComparisonUsed) {
  // A weak client tag matches a strong current tag with equal value.
  EXPECT_EQ(evaluate_conditional(conditional_request("W/\"x\""),
                                 Etag{"x", false}, std::nullopt),
            ConditionalOutcome::NotModified);
}

TEST(ConditionalTest, WildcardMatches) {
  EXPECT_EQ(evaluate_conditional(conditional_request("*"),
                                 Etag{"anything", false}, std::nullopt),
            ConditionalOutcome::NotModified);
}

TEST(ConditionalTest, MalformedIfNoneMatchTreatedAsModified) {
  EXPECT_EQ(evaluate_conditional(conditional_request("garbage"),
                                 Etag{"x", false}, std::nullopt),
            ConditionalOutcome::Modified);
}

TEST(ConditionalTest, IfModifiedSinceHonored) {
  const TimePoint last_modified = TimePoint{} + hours(10);
  Request req = Request::get("/r", "h");
  req.headers.set(kIfModifiedSince,
                  format_http_date(TimePoint{} + hours(12)));
  EXPECT_EQ(evaluate_conditional(req, Etag{"x", false}, last_modified),
            ConditionalOutcome::NotModified);
  req.headers.set(kIfModifiedSince,
                  format_http_date(TimePoint{} + hours(8)));
  EXPECT_EQ(evaluate_conditional(req, Etag{"x", false}, last_modified),
            ConditionalOutcome::Modified);
}

TEST(ConditionalTest, IfNoneMatchTakesPrecedenceOverIms) {
  Request req = conditional_request("\"stale\"");
  req.headers.set(kIfModifiedSince,
                  format_http_date(TimePoint{} + hours(12)));
  // The ETag mismatches, so the resource counts as modified even though
  // the IMS date alone would say otherwise.
  EXPECT_EQ(evaluate_conditional(req, Etag{"fresh", false},
                                 TimePoint{} + hours(10)),
            ConditionalOutcome::Modified);
}

TEST(MakeNotModifiedTest, CarriesValidatorsAndCacheHeaders) {
  Headers cache_headers;
  cache_headers.set(kCacheControl, "max-age=60");
  cache_headers.set(kLastModified, "Thu, 01 Jan 2026 00:00:00 GMT");
  cache_headers.set("X-Unrelated", "dropped");
  const Response resp =
      make_not_modified(Etag{"v2", false}, cache_headers);
  EXPECT_EQ(resp.status, Status::NotModified);
  EXPECT_EQ(resp.headers.get(kEtagHeader), "\"v2\"");
  EXPECT_EQ(resp.headers.get(kCacheControl), "max-age=60");
  EXPECT_TRUE(resp.headers.contains(kLastModified));
  EXPECT_FALSE(resp.headers.contains("X-Unrelated"));
  EXPECT_TRUE(resp.body.str().empty());
}

}  // namespace
}  // namespace catalyst::http
