#include "cache/sw_cache.h"

#include <gtest/gtest.h>

namespace catalyst::cache {
namespace {

using http::Etag;
using http::Response;
using http::Status;

Response response_with_etag(const std::string& etag,
                            const std::string& cache_control = "") {
  Response resp = Response::make(Status::Ok);
  resp.body = "payload-" + etag;
  resp.headers.set(http::kEtagHeader, "\"" + etag + "\"");
  if (!cache_control.empty()) {
    resp.headers.set(http::kCacheControl, cache_control);
  }
  resp.finalize(TimePoint{});
  return resp;
}

TEST(SwCacheTest, MatchRequiresEqualEtag) {
  SwCache cache;
  ASSERT_TRUE(cache.put("/a.css", response_with_etag("v1")));
  const Response* hit = cache.match("/a.css", Etag{"v1", false}).response;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->body.str(), "payload-v1");

  const SwCache::Match mismatch = cache.match("/a.css", Etag{"v2", false});
  EXPECT_EQ(mismatch.response, nullptr);
  EXPECT_FALSE(mismatch.integrity_failure);
  EXPECT_TRUE(cache.contains("/a.css"));  // outdated, not evicted
}

TEST(SwCacheTest, WeakComparisonUsed) {
  SwCache cache;
  cache.put("/a", response_with_etag("v1"));
  EXPECT_NE(cache.match("/a", Etag{"v1", true}).response, nullptr);
}

TEST(SwCacheTest, MissOnUnknownPath) {
  SwCache cache;
  const SwCache::Match miss = cache.match("/nope", Etag{"v", false});
  EXPECT_EQ(miss.response, nullptr);
  EXPECT_FALSE(miss.integrity_failure);
}

TEST(SwCacheTest, NoStoreRespected) {
  SwCache cache;
  EXPECT_FALSE(cache.put("/secret", response_with_etag("v1", "no-store")));
  EXPECT_FALSE(cache.contains("/secret"));
}

TEST(SwCacheTest, NoCacheIsStoredAnyway) {
  // The paper's point: no-cache resources are cacheable; the map decides
  // validity, not the TTL headers.
  SwCache cache;
  EXPECT_TRUE(cache.put("/nc", response_with_etag("v1", "no-cache")));
  EXPECT_NE(cache.match("/nc", Etag{"v1", false}).response, nullptr);
}

TEST(SwCacheTest, ResponseWithoutEtagRejected) {
  SwCache cache;
  Response resp = Response::make(Status::Ok);
  resp.body = "x";
  EXPECT_FALSE(cache.put("/no-etag", std::move(resp)));
}

TEST(SwCacheTest, PutReplacesVersion) {
  SwCache cache;
  cache.put("/a", response_with_etag("v1"));
  cache.put("/a", response_with_etag("v2"));
  EXPECT_EQ(cache.match("/a", Etag{"v1", false}).response, nullptr);
  EXPECT_NE(cache.match("/a", Etag{"v2", false}).response, nullptr);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(SwCacheTest, StoredEtagAccessor) {
  SwCache cache;
  cache.put("/a", response_with_etag("v7"));
  const auto etag = cache.stored_etag("/a");
  ASSERT_TRUE(etag);
  EXPECT_EQ(etag->value, "v7");
  EXPECT_FALSE(cache.stored_etag("/missing"));
}

TEST(SwCacheTest, EntriesNeverExpireByTime) {
  // No TTL: a year-old entry still matches if the ETag agrees.
  SwCache cache;
  cache.put("/old", response_with_etag("v1"));
  EXPECT_NE(cache.match("/old", Etag{"v1", false}).response, nullptr);
}

TEST(SwCacheTest, CorruptEntryReportsIntegrityFailureAndIsEvicted) {
  SwCache cache;
  cache.put("/a", response_with_etag("v1"));
  cache.corrupt("/a");
  const SwCache::Match rotted = cache.match("/a", Etag{"v1", false});
  EXPECT_EQ(rotted.response, nullptr);
  EXPECT_TRUE(rotted.integrity_failure);
  EXPECT_FALSE(cache.contains("/a"));
}

}  // namespace
}  // namespace catalyst::cache
