#include "cache/freshness.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "http/date.h"

namespace catalyst::cache {
namespace {

using http::Response;
using http::Status;

CacheEntry entry_with(const std::string& cache_control,
                      TimePoint response_time) {
  Response resp = Response::make(Status::Ok);
  if (!cache_control.empty()) {
    resp.headers.set(http::kCacheControl, cache_control);
  }
  resp.headers.set(http::kDate, http::format_http_date(response_time));
  CacheEntry entry;
  entry.response = std::move(resp);
  entry.request_time = response_time;
  entry.response_time = response_time;
  return entry;
}

TEST(FreshnessTest, MaxAgeGovernsLifetime) {
  const auto entry = entry_with("max-age=300", TimePoint{});
  EXPECT_EQ(freshness_lifetime(entry.response, false), seconds(300));
  EXPECT_TRUE(is_fresh(entry, TimePoint{} + seconds(299), false));
  EXPECT_FALSE(is_fresh(entry, TimePoint{} + seconds(300), false));
}

TEST(FreshnessTest, NoCacheAndNoStoreAreAlwaysStale) {
  EXPECT_EQ(freshness_lifetime(entry_with("no-cache", TimePoint{}).response,
                               true),
            Duration::zero());
  EXPECT_EQ(freshness_lifetime(entry_with("no-store", TimePoint{}).response,
                               true),
            Duration::zero());
  // no-cache wins even against an explicit max-age.
  EXPECT_EQ(freshness_lifetime(
                entry_with("no-cache, max-age=600", TimePoint{}).response,
                true),
            Duration::zero());
}

TEST(FreshnessTest, ExpiresMinusDate) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  resp.headers.set(http::kExpires,
                   http::format_http_date(TimePoint{} + hours(2)));
  EXPECT_EQ(freshness_lifetime(resp, false), hours(2));
}

TEST(FreshnessTest, MaxAgeBeatsExpires) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kCacheControl, "max-age=60");
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  resp.headers.set(http::kExpires,
                   http::format_http_date(TimePoint{} + hours(2)));
  EXPECT_EQ(freshness_lifetime(resp, false), seconds(60));
}

TEST(FreshnessTest, MalformedExpiresMeansExpired) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  resp.headers.set(http::kExpires, "0");
  EXPECT_EQ(freshness_lifetime(resp, true), Duration::zero());
}

TEST(FreshnessTest, ExpiresInPastClampsToZero) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kDate,
                   http::format_http_date(TimePoint{} + hours(5)));
  resp.headers.set(http::kExpires, http::format_http_date(TimePoint{}));
  EXPECT_EQ(freshness_lifetime(resp, true), Duration::zero());
}

TEST(FreshnessTest, HeuristicTenPercentOfLastModifiedAge) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kDate,
                   http::format_http_date(TimePoint{} + days(10)));
  resp.headers.set(http::kLastModified,
                   http::format_http_date(TimePoint{}));
  // 10% of 10 days = 1 day, capped at 1 day.
  EXPECT_EQ(freshness_lifetime(resp, true), hours(24));
  EXPECT_EQ(freshness_lifetime(resp, false), Duration::zero());

  resp.headers.set(http::kLastModified,
                   http::format_http_date(TimePoint{} + days(9)));
  // 10% of 1 day = 2.4 h.
  EXPECT_EQ(freshness_lifetime(resp, true), hours(24) / 10);
}

TEST(FreshnessTest, NoValidatorsNoLifetime) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  EXPECT_EQ(freshness_lifetime(resp, true), Duration::zero());
}

TEST(AgeTest, ResidentTimeDominates) {
  const auto entry = entry_with("max-age=100", TimePoint{} + hours(1));
  EXPECT_EQ(current_age(entry, TimePoint{} + hours(1) + seconds(30)),
            seconds(30));
}

TEST(AgeTest, ApparentAgeFromSkewedDate) {
  // The origin's Date is 10 s before the response arrived (network delay
  // or clock skew): apparent age starts at 10 s.
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kCacheControl, "max-age=100");
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  CacheEntry entry;
  entry.response = std::move(resp);
  entry.response_time = TimePoint{} + seconds(10);
  EXPECT_EQ(current_age(entry, TimePoint{} + seconds(10)), seconds(10));
}

TEST(AgeTest, AgeHeaderRespected) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  resp.headers.set(http::kAge, "50");
  CacheEntry entry;
  entry.response = std::move(resp);
  entry.response_time = TimePoint{};
  EXPECT_EQ(current_age(entry, TimePoint{} + seconds(10)), seconds(60));
}

CacheEntry negative_entry(Status status, const std::string& cache_control,
                          TimePoint response_time) {
  Response resp = Response::make(status);
  if (!cache_control.empty()) {
    resp.headers.set(http::kCacheControl, cache_control);
  }
  resp.headers.set(http::kDate, http::format_http_date(response_time));
  CacheEntry entry;
  entry.response = std::move(resp);
  entry.request_time = response_time;
  entry.response_time = response_time;
  return entry;
}

TEST(NegativeFreshnessTest, StatusClassification) {
  EXPECT_TRUE(is_negative_status(Status::NotFound));
  EXPECT_TRUE(is_negative_status(Status::Gone));
  EXPECT_FALSE(is_negative_status(Status::Ok));
  EXPECT_FALSE(is_negative_status(Status::InternalServerError));
}

TEST(NegativeFreshnessTest, DefaultTtlWithoutExplicitFreshness) {
  NegativePolicy policy;
  policy.enabled = true;
  const auto entry = negative_entry(Status::NotFound, "", TimePoint{});
  EXPECT_EQ(negative_freshness_lifetime(entry.response, policy),
            policy.default_ttl);
  EXPECT_TRUE(is_negative_fresh(entry, TimePoint{} + seconds(59), policy));
  EXPECT_FALSE(is_negative_fresh(entry, TimePoint{} + seconds(60), policy));
}

TEST(NegativeFreshnessTest, ExplicitMaxAgeHonoredWithinBound) {
  NegativePolicy policy;
  policy.enabled = true;
  const auto entry =
      negative_entry(Status::Gone, "max-age=120", TimePoint{});
  EXPECT_EQ(negative_freshness_lifetime(entry.response, policy),
            seconds(120));
  EXPECT_TRUE(is_negative_fresh(entry, TimePoint{} + seconds(119), policy));
  EXPECT_FALSE(is_negative_fresh(entry, TimePoint{} + seconds(120), policy));
}

TEST(NegativeFreshnessTest, GenerousMaxAgeClampedToPolicyBound) {
  // A misconfigured origin must not pin an error past max_ttl.
  NegativePolicy policy;
  policy.enabled = true;
  const auto entry =
      negative_entry(Status::NotFound, "max-age=31536000", TimePoint{});
  EXPECT_EQ(negative_freshness_lifetime(entry.response, policy),
            policy.max_ttl);
}

TEST(NegativeFreshnessTest, ExpiresHeaderClampedToPolicyBound) {
  NegativePolicy policy;
  policy.enabled = true;
  Response resp = Response::make(Status::NotFound);
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  resp.headers.set(http::kExpires,
                   http::format_http_date(TimePoint{} + hours(48)));
  EXPECT_EQ(negative_freshness_lifetime(resp, policy), policy.max_ttl);
}

TEST(NegativeFreshnessTest, NoCacheAndNoStoreForceZero) {
  NegativePolicy policy;
  policy.enabled = true;
  EXPECT_EQ(negative_freshness_lifetime(
                negative_entry(Status::NotFound, "no-cache", TimePoint{})
                    .response,
                policy),
            Duration::zero());
  EXPECT_EQ(negative_freshness_lifetime(
                negative_entry(Status::Gone, "no-store", TimePoint{})
                    .response,
                policy),
            Duration::zero());
}

TEST(NegativeFreshnessTest, AgeHeaderShortensNegativeLifetime) {
  // A 404 relayed through an intermediary with Age: 50 has already burned
  // most of the 60 s default lifetime when it arrives.
  NegativePolicy policy;
  policy.enabled = true;
  Response resp = Response::make(Status::NotFound);
  resp.headers.set(http::kDate, http::format_http_date(TimePoint{}));
  resp.headers.set(http::kAge, "50");
  CacheEntry entry;
  entry.response = std::move(resp);
  entry.request_time = TimePoint{};
  entry.response_time = TimePoint{};
  EXPECT_TRUE(is_negative_fresh(entry, TimePoint{} + seconds(9), policy));
  EXPECT_FALSE(is_negative_fresh(entry, TimePoint{} + seconds(10), policy));
}

TEST(NegativeFreshnessTest, TightMaxTtlBoundsDefault) {
  NegativePolicy policy;
  policy.enabled = true;
  policy.default_ttl = seconds(60);
  policy.max_ttl = seconds(15);
  const auto entry = negative_entry(Status::NotFound, "", TimePoint{});
  EXPECT_EQ(negative_freshness_lifetime(entry.response, policy),
            seconds(15));
}

// ---- Storability (RFC 9111 §3), private and shared caches ----

struct Storable {
  bool private_cache = false;
  bool shared_cache = false;
  bool operator==(const Storable&) const = default;
};

/// is_storable for a private and for a shared cache.
Storable storable(const Response& response, bool negative_caching = false) {
  NegativePolicy policy;
  policy.enabled = negative_caching;
  return {is_storable(response, policy, /*shared=*/false),
          is_storable(response, policy, /*shared=*/true)};
}

Response response_with(Status status, const std::string& cache_control,
                       std::string_view extra_header = {}) {
  Response resp = Response::make(status);
  if (!cache_control.empty()) {
    resp.headers.set(http::kCacheControl, cache_control);
  }
  if (!extra_header.empty()) resp.headers.set(extra_header, "x");
  return resp;
}

constexpr Storable kBoth{true, true};
constexpr Storable kNeither{false, false};

TEST(StorabilityTest, NoStoreIsRefusedByBoth) {
  EXPECT_EQ(storable(response_with(Status::Ok, "no-store, max-age=60",
                                   http::kEtagHeader)),
            kNeither);
}

TEST(StorabilityTest, PrivateIsRefusedOnlyBySharedCache) {
  EXPECT_EQ(storable(response_with(Status::Ok, "private, max-age=60")),
            (Storable{true, false}));
  EXPECT_EQ(storable(response_with(Status::NotFound, "private"),
                     /*negative_caching=*/true),
            (Storable{true, false}));
}

TEST(StorabilityTest, UncacheableStatusIsRefusedByBoth) {
  for (const Status status :
       {Status::Found, Status::InternalServerError, Status::BadGateway}) {
    EXPECT_EQ(storable(response_with(status, "max-age=60",
                                     http::kEtagHeader),
                       /*negative_caching=*/true),
              kNeither)
        << http::code(status);
  }
}

TEST(StorabilityTest, ErrorsNeedNegativeCachingAndNoNoCache) {
  for (const Status status : {Status::NotFound, Status::Gone}) {
    // No freshness info or validator needed: the bounded negative TTL is
    // the error's freshness info.
    EXPECT_EQ(storable(response_with(status, "")), kNeither);
    EXPECT_EQ(storable(response_with(status, ""), /*negative_caching=*/true),
              kBoth);
    EXPECT_EQ(storable(response_with(status, "no-cache"),
                       /*negative_caching=*/true),
              kNeither);
  }
}

TEST(StorabilityTest, OthersNeedFreshnessInfoOrAValidator) {
  EXPECT_EQ(storable(response_with(Status::Ok, "")), kNeither);
  EXPECT_EQ(storable(response_with(Status::Ok, "public")), kNeither);
  EXPECT_EQ(storable(response_with(Status::Ok, "max-age=60")), kBoth);
  EXPECT_EQ(storable(response_with(Status::Ok, "no-cache")), kBoth);
  for (const std::string_view header :
       {http::kExpires, http::kEtagHeader, http::kLastModified}) {
    EXPECT_EQ(storable(response_with(Status::Ok, "", header)), kBoth)
        << header;
  }
  EXPECT_EQ(storable(response_with(Status::MovedPermanently, "max-age=60")),
            kBoth);
}

}  // namespace
}  // namespace catalyst::cache
