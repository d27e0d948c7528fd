// Randomized property sweeps over the HTTP cache and header codecs:
// invariants that must hold for arbitrary generated inputs.
#include <gtest/gtest.h>

#include "cache/freshness.h"
#include "cache/http_cache.h"
#include "http/date.h"
#include "http/etag_config.h"
#include "http/serializer.h"
#include "util/rng.h"

namespace catalyst {
namespace {

using cache::CacheEntry;
using cache::HttpCache;
using cache::LookupDecision;
using http::Response;
using http::Status;

class CacheProperties : public ::testing::TestWithParam<std::uint64_t> {};

/// Draws a random-but-valid response with assorted cache headers.
Response random_response(Rng& rng, TimePoint now) {
  Response resp = Response::make(Status::Ok);
  resp.body = std::string(static_cast<std::size_t>(
                              rng.uniform_int(0, 2000)),
                          'b');
  const double roll = rng.next_double();
  if (roll < 0.2) {
    resp.headers.set(http::kCacheControl, "no-store");
  } else if (roll < 0.4) {
    resp.headers.set(http::kCacheControl, "no-cache");
  } else if (roll < 0.8) {
    resp.headers.set(
        http::kCacheControl,
        "max-age=" + std::to_string(rng.uniform_int(0, 86400)));
  }  // else: no cache-control at all
  if (rng.bernoulli(0.7)) {
    resp.headers.set(http::kEtagHeader,
                     "\"e" + std::to_string(rng.next_u64() & 0xFFFF) +
                         "\"");
  }
  if (rng.bernoulli(0.5)) {
    resp.headers.set(
        http::kLastModified,
        http::format_http_date(now - hours(rng.uniform_int(0, 72))));
  }
  resp.finalize(now);
  return resp;
}

TEST_P(CacheProperties, StoreLookupInvariants) {
  Rng rng(GetParam());
  HttpCache cache(MiB(8));
  const TimePoint t0{};
  for (int i = 0; i < 300; ++i) {
    const std::string url = "https://h/" + std::to_string(i);
    Response resp = random_response(rng, t0);
    const bool no_store = resp.cache_control().no_store;
    const bool stored = cache.store(url, resp, t0, t0);

    // 1. no-store is never stored.
    if (no_store) EXPECT_FALSE(stored) << url;
    if (!stored) {
      EXPECT_FALSE(cache.contains(url));
      continue;
    }

    // 2. A lookup right now never claims a fresh hit for no-cache.
    const auto now_result = cache.lookup(url, t0);
    if (resp.cache_control().no_cache) {
      EXPECT_NE(now_result.decision, LookupDecision::FreshHit) << url;
    }

    // 3. Whatever the decision, any returned entry carries the body we
    //    stored.
    if (now_result.entry != nullptr) {
      EXPECT_EQ(now_result.entry->response.body.str(), resp.body.str());
    }

    // 4. Far in the future everything is stale: either revalidate (a
    //    validator exists) or miss — never a fresh hit.
    const auto later = cache.lookup(url, t0 + days(400));
    EXPECT_NE(later.decision, LookupDecision::FreshHit) << url;
  }
  // 5. Capacity accounting is consistent.
  EXPECT_LE(cache.size_bytes(), MiB(8));
}

TEST_P(CacheProperties, FreshnessMonotoneInTime) {
  Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 100; ++i) {
    CacheEntry entry;
    entry.response = random_response(rng, TimePoint{});
    entry.request_time = TimePoint{};
    entry.response_time = TimePoint{};
    bool was_fresh = true;
    for (int h = 0; h <= 48; h += 3) {
      const bool fresh =
          cache::is_fresh(entry, TimePoint{} + hours(h), true);
      // Once stale, never fresh again (no refresh happened).
      if (!was_fresh) EXPECT_FALSE(fresh);
      was_fresh = fresh;
    }
  }
}

TEST_P(CacheProperties, MessageWireRoundTripIsLossless) {
  Rng rng(GetParam() ^ 0xCAFE);
  for (int i = 0; i < 50; ++i) {
    const Response original = random_response(rng, TimePoint{} + hours(1));
    EXPECT_EQ(http::serialize(original).size(), original.wire_size());
  }
}

TEST_P(CacheProperties, EtagConfigRoundTripsArbitraryPaths) {
  Rng rng(GetParam() ^ 0xE7A6);
  http::EtagConfig config;
  std::map<std::string, std::string> truth;
  for (int i = 0; i < 100; ++i) {
    // Paths with awkward-but-legal characters.
    std::string path = "/p";
    const int len = static_cast<int>(rng.uniform_int(1, 40));
    static constexpr char kChars[] =
        "abcXYZ019-._~!$&'()*+,;=:@/ \"\\";
    for (int c = 0; c < len; ++c) {
      path.push_back(
          kChars[rng.uniform_int(0, sizeof(kChars) - 2)]);
    }
    const std::string etag =
        "v" + std::to_string(rng.next_u64() & 0xFFFFFF);
    config.add(path, http::Etag{etag, rng.bernoulli(0.3)});
    truth[path] = etag;
  }
  const auto parsed = http::EtagConfig::parse(config.encode());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->size(), config.size());
  for (const auto& [path, etag] : truth) {
    const auto found = parsed->find(path);
    ASSERT_TRUE(found) << path;
    EXPECT_EQ(found->value, etag) << path;
  }
}

/// Draws a CacheControl with an arbitrary directive combination (including
/// contradictory ones a buggy origin could emit — the codec must not care).
http::CacheControl random_cache_control(Rng& rng) {
  http::CacheControl cc;
  cc.no_store = rng.bernoulli(0.2);
  cc.no_cache = rng.bernoulli(0.2);
  cc.must_revalidate = rng.bernoulli(0.2);
  cc.immutable = rng.bernoulli(0.2);
  cc.is_public = rng.bernoulli(0.3);
  cc.is_private = rng.bernoulli(0.2);
  if (rng.bernoulli(0.6)) {
    cc.max_age = seconds(rng.uniform_int(0, 365LL * 24 * 3600));
  }
  return cc;
}

TEST_P(CacheProperties, CacheControlSerializeParseIsIdentity) {
  // parse ∘ to_string = id over the full directive space: every field the
  // struct can express survives a wire round trip, 1000 cases per seed.
  Rng rng(GetParam() ^ 0xCCCC);
  for (int i = 0; i < 1000; ++i) {
    const http::CacheControl original = random_cache_control(rng);
    const std::string wire = original.to_string();
    const http::CacheControl parsed = http::CacheControl::parse(wire);
    EXPECT_EQ(parsed, original) << "wire: " << wire;
    // Serialization is canonical: a second round trip is a fixed point.
    EXPECT_EQ(parsed.to_string(), wire);
  }
}

TEST_P(CacheProperties, CacheControlParseIgnoresNoiseAroundDirectives) {
  // RFC 9111 §5.2.3: unknown directives are ignored, and list syntax
  // tolerates arbitrary whitespace — neither may disturb known fields.
  const http::CacheControl parsed = http::CacheControl::parse(
      "  no-cache ,x-unknown=5,  max-age=120  , weird");
  EXPECT_TRUE(parsed.no_cache);
  ASSERT_TRUE(parsed.max_age.has_value());
  EXPECT_EQ(*parsed.max_age, seconds(120));
  EXPECT_FALSE(parsed.no_store);
}

TEST_P(CacheProperties, EtagConfigEncodeParseIsIdentity) {
  // parse ∘ encode = id over random maps, 1000 cases per seed: sizes,
  // weak flags and entry order all survive; encoding is canonical.
  Rng rng(GetParam() ^ 0xE7A7);
  for (int i = 0; i < 1000; ++i) {
    http::EtagConfig config;
    const int entries = static_cast<int>(rng.uniform_int(0, 12));
    for (int e = 0; e < entries; ++e) {
      config.add("/r" + std::to_string(e) + "-" +
                     std::to_string(rng.next_u64() & 0xFFF),
                 http::Etag{"t" + std::to_string(rng.next_u64() & 0xFFFFFF),
                            rng.bernoulli(0.3)});
    }
    const std::string wire = config.encode();
    const auto parsed = http::EtagConfig::parse(wire);
    ASSERT_TRUE(parsed) << "wire: " << wire;
    ASSERT_EQ(parsed->size(), config.size());
    for (const auto& [path, etag] : config.entries()) {
      const auto found = parsed->find(path);
      ASSERT_TRUE(found) << path;
      EXPECT_EQ(found->value, etag.value);
      EXPECT_EQ(found->weak, etag.weak);
    }
    EXPECT_EQ(parsed->encode(), wire);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace catalyst
