#include "cache/freshness.h"

#include <algorithm>

#include "http/date.h"
#include "util/strings.h"

namespace catalyst::cache {

Duration freshness_lifetime(const http::Response& response,
                            bool allow_heuristic) {
  const http::CacheControl cc = response.cache_control();
  if (cc.no_cache || cc.no_store) return Duration::zero();
  if (cc.max_age) return *cc.max_age;

  const auto date_field = response.headers.get(http::kDate);
  const auto date = date_field ? http::parse_http_date(*date_field)
                               : std::nullopt;
  if (const auto expires_field = response.headers.get(http::kExpires)) {
    const auto expires = http::parse_http_date(*expires_field);
    // Malformed Expires (e.g. "0") means already expired (§5.3).
    if (!expires) return Duration::zero();
    if (!date) return Duration::zero();
    return std::max(Duration::zero(), *expires - *date);
  }
  if (allow_heuristic) {
    if (const auto lm_field = response.headers.get(http::kLastModified)) {
      const auto last_modified = http::parse_http_date(*lm_field);
      if (last_modified && date && *date > *last_modified) {
        const Duration lifetime = (*date - *last_modified) / 10;
        return std::min(lifetime, hours(24));
      }
    }
  }
  return Duration::zero();
}

Duration current_age(const CacheEntry& entry, TimePoint now) {
  Duration apparent_age = Duration::zero();
  if (const auto date_field = entry.response.headers.get(http::kDate)) {
    if (const auto date = http::parse_http_date(*date_field)) {
      apparent_age = std::max(Duration::zero(), entry.response_time - *date);
    }
  }
  // Age header (from an intermediate cache) would add here; the simulation
  // talks to origins directly, so resident time dominates.
  Duration age_value = Duration::zero();
  if (const auto age_field = entry.response.headers.get(http::kAge)) {
    std::uint64_t age_seconds = 0;
    if (parse_u64(*age_field, age_seconds)) {
      age_value = seconds(static_cast<std::int64_t>(age_seconds));
    }
  }
  const Duration corrected = std::max(apparent_age, age_value);
  const Duration resident = now - entry.response_time;
  return corrected + resident;
}

bool is_fresh(const CacheEntry& entry, TimePoint now,
              bool allow_heuristic) {
  return freshness_lifetime(entry.response, allow_heuristic) >
         current_age(entry, now);
}

Duration negative_freshness_lifetime(const http::Response& response,
                                     const NegativePolicy& policy) {
  const http::CacheControl cc = response.cache_control();
  if (cc.no_cache || cc.no_store) return Duration::zero();
  // Explicit freshness (max-age or Expires−Date) is honored but clamped:
  // an over-generous origin must not pin an error past the policy bound.
  const Duration explicit_lifetime =
      freshness_lifetime(response, /*allow_heuristic=*/false);
  if (explicit_lifetime > Duration::zero()) {
    return std::min(explicit_lifetime, policy.max_ttl);
  }
  return std::min(policy.default_ttl, policy.max_ttl);
}

bool is_negative_fresh(const CacheEntry& entry, TimePoint now,
                       const NegativePolicy& policy) {
  return negative_freshness_lifetime(entry.response, policy) >
         current_age(entry, now);
}

bool may_serve(const CacheEntry& entry, TimePoint now,
               const NegativePolicy& negative, bool allow_heuristic) {
  if (is_negative_status(entry.response.status)) {
    return negative.enabled && is_negative_fresh(entry, now, negative);
  }
  const http::CacheControl cc = entry.response.cache_control();
  return !cc.must_revalidate && !cc.no_cache &&
         is_fresh(entry, now, allow_heuristic);
}

bool has_validator(const CacheEntry& entry) {
  return entry.etag() ||
         entry.response.headers.contains(http::kLastModified);
}

bool is_storable(const http::Response& response,
                 const NegativePolicy& negative, bool shared) {
  const http::CacheControl cc = response.cache_control();
  if (cc.no_store || (shared && cc.is_private)) return false;
  if (!http::is_cacheable_status(response.status)) return false;
  if (is_negative_status(response.status)) {
    return negative.enabled && !cc.no_cache;
  }
  return cc.max_age || cc.no_cache ||
         response.headers.contains(http::kExpires) ||
         response.headers.contains(http::kEtagHeader) ||
         response.headers.contains(http::kLastModified);
}

}  // namespace catalyst::cache
