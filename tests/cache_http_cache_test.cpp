#include "cache/http_cache.h"

#include <gtest/gtest.h>

#include "http/date.h"

namespace catalyst::cache {
namespace {

using http::Response;
using http::Status;

Response ok_response(const std::string& cache_control,
                     const std::string& etag, TimePoint now) {
  Response resp = Response::make(Status::Ok);
  resp.body = "content";
  if (!cache_control.empty()) {
    resp.headers.set(http::kCacheControl, cache_control);
  }
  if (!etag.empty()) resp.headers.set(http::kEtagHeader, etag);
  resp.finalize(now);
  return resp;
}

TEST(HttpCacheTest, MissWhenEmpty) {
  HttpCache cache;
  const auto result = cache.lookup("u", TimePoint{});
  EXPECT_EQ(result.decision, LookupDecision::Miss);
  EXPECT_EQ(result.entry, nullptr);
}

TEST(HttpCacheTest, FreshHitWithinMaxAge) {
  HttpCache cache;
  ASSERT_TRUE(cache.store("u", ok_response("max-age=60", "\"e\"",
                                           TimePoint{}),
                          TimePoint{}, TimePoint{}));
  const auto hit = cache.lookup("u", TimePoint{} + seconds(30));
  EXPECT_EQ(hit.decision, LookupDecision::FreshHit);
  ASSERT_NE(hit.entry, nullptr);
  EXPECT_EQ(hit.entry->response.body.str(), "content");

  const auto stale = cache.lookup("u", TimePoint{} + seconds(61));
  EXPECT_EQ(stale.decision, LookupDecision::NeedsRevalidation);
}

TEST(HttpCacheTest, NoCacheAlwaysRevalidates) {
  HttpCache cache;
  ASSERT_TRUE(cache.store("u", ok_response("no-cache", "\"e\"",
                                           TimePoint{}),
                          TimePoint{}, TimePoint{}));
  const auto result = cache.lookup("u", TimePoint{} + seconds(1));
  EXPECT_EQ(result.decision, LookupDecision::NeedsRevalidation);
  ASSERT_NE(result.entry, nullptr);
}

TEST(HttpCacheTest, MustRevalidateForcesRevalidationWhenStale) {
  HttpCache cache;
  ASSERT_TRUE(cache.store(
      "u", ok_response("max-age=10, must-revalidate", "\"e\"", TimePoint{}),
      TimePoint{}, TimePoint{}));
  EXPECT_EQ(cache.lookup("u", TimePoint{} + seconds(60)).decision,
            LookupDecision::NeedsRevalidation);
}

TEST(HttpCacheTest, NoStoreNeverStored) {
  HttpCache cache;
  EXPECT_FALSE(cache.store("u", ok_response("no-store", "\"e\"",
                                            TimePoint{}),
                           TimePoint{}, TimePoint{}));
  EXPECT_FALSE(cache.contains("u"));
}

TEST(HttpCacheTest, UncacheableStatusRejected) {
  HttpCache cache;
  Response resp = Response::make(Status::InternalServerError);
  resp.headers.set(http::kCacheControl, "max-age=60");
  resp.finalize(TimePoint{});
  EXPECT_FALSE(cache.store("u", std::move(resp), TimePoint{}, TimePoint{}));
}

TEST(HttpCacheTest, UnreusableResponseNotStored) {
  HttpCache cache;
  // No freshness info and no validators: cannot ever be reused.
  Response resp = Response::make(Status::Ok);
  resp.body = "x";
  EXPECT_FALSE(cache.store("u", std::move(resp), TimePoint{}, TimePoint{}));
}

TEST(HttpCacheTest, StaleWithoutValidatorIsMiss) {
  HttpCache cache(MiB(1), /*allow_heuristic=*/false);
  // max-age but no ETag / Last-Modified: after expiry there is nothing to
  // revalidate with.
  ASSERT_TRUE(cache.store("u", ok_response("max-age=10", "", TimePoint{}),
                          TimePoint{}, TimePoint{}));
  EXPECT_EQ(cache.lookup("u", TimePoint{} + seconds(60)).decision,
            LookupDecision::Miss);
}

TEST(HttpCacheTest, ApplyNotModifiedRefreshesMetadata) {
  HttpCache cache;
  ASSERT_TRUE(cache.store("u", ok_response("max-age=10", "\"v1\"",
                                           TimePoint{}),
                          TimePoint{}, TimePoint{}));
  // Stale at +60 s.
  ASSERT_EQ(cache.lookup("u", TimePoint{} + seconds(60)).decision,
            LookupDecision::NeedsRevalidation);

  Response not_modified = Response::make(Status::NotModified);
  not_modified.headers.set(http::kEtagHeader, "\"v1\"");
  not_modified.headers.set(http::kCacheControl, "max-age=10");
  not_modified.headers.set(
      http::kDate, http::format_http_date(TimePoint{} + seconds(60)));
  const CacheEntry* refreshed = cache.apply_not_modified(
      "u", not_modified, TimePoint{} + seconds(60),
      TimePoint{} + seconds(60));
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->response.body.str(), "content");  // body kept

  // Fresh again for another 10 s window.
  EXPECT_EQ(cache.lookup("u", TimePoint{} + seconds(65)).decision,
            LookupDecision::FreshHit);
}

TEST(HttpCacheTest, ApplyNotModifiedOnMissingEntry) {
  HttpCache cache;
  Response not_modified = Response::make(Status::NotModified);
  EXPECT_EQ(cache.apply_not_modified("u", not_modified, TimePoint{},
                                     TimePoint{}),
            nullptr);
}

TEST(HttpCacheTest, HeuristicFreshnessToggle) {
  Response resp = Response::make(Status::Ok);
  resp.body = "x";
  resp.headers.set(http::kLastModified,
                   http::format_http_date(TimePoint{}));
  resp.finalize(TimePoint{} + days(10));

  HttpCache heuristic(MiB(1), /*allow_heuristic=*/true);
  ASSERT_TRUE(heuristic.store("u", resp, TimePoint{} + days(10),
                              TimePoint{} + days(10)));
  EXPECT_EQ(heuristic.lookup("u", TimePoint{} + days(10) + hours(1))
                .decision,
            LookupDecision::FreshHit);

  HttpCache strict(MiB(1), /*allow_heuristic=*/false);
  ASSERT_TRUE(strict.store("u", resp, TimePoint{} + days(10),
                           TimePoint{} + days(10)));
  EXPECT_EQ(
      strict.lookup("u", TimePoint{} + days(10) + hours(1)).decision,
      LookupDecision::NeedsRevalidation);
}

TEST(HttpCacheTest, LookupsClassifyHitRevalidationAndMiss) {
  HttpCache cache;
  EXPECT_TRUE(cache.store("u", ok_response("max-age=60", "\"e\"", TimePoint{}),
                          TimePoint{}, TimePoint{}));
  EXPECT_EQ(cache.lookup("u", TimePoint{} + seconds(1)).decision,
            LookupDecision::FreshHit);
  EXPECT_EQ(cache.lookup("u", TimePoint{} + seconds(90)).decision,
            LookupDecision::NeedsRevalidation);
  EXPECT_EQ(cache.lookup("v", TimePoint{}).decision, LookupDecision::Miss);
  EXPECT_EQ(cache.entry_count(), 1u);
}

}  // namespace
}  // namespace catalyst::cache
