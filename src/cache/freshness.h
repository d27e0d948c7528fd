// Freshness lifetime and age computation (RFC 9111 §4.2).
//
// The paper's critique lives here: a response is served from cache only
// while fresh; expired-but-unchanged responses force a re-validation RTT.
#pragma once

#include "cache/entry.h"
#include "util/types.h"

namespace catalyst::cache {

/// Freshness lifetime (RFC 9111 §4.2.1): Cache-Control max-age wins, then
/// Expires − Date. With `allow_heuristic`, responses lacking explicit
/// lifetimes get the 10%-of-Last-Modified-age heuristic (§4.2.2), capped
/// at one day (matching common browser practice). no-cache forces zero.
Duration freshness_lifetime(const http::Response& response,
                            bool allow_heuristic);

/// Current age (RFC 9111 §4.2.3), simplified for a single-hop private
/// cache: apparent age from the Date header plus resident time.
Duration current_age(const CacheEntry& entry, TimePoint now);

/// response_is_fresh = freshness_lifetime > current_age (§4.2).
bool is_fresh(const CacheEntry& entry, TimePoint now, bool allow_heuristic);

/// Negative caching policy (RFC 9111 §4 applied to error responses, after
/// Garg et al.): 404/410 responses are stored under a bounded TTL so dead
/// links stop costing an origin round-trip per reference. Off by default —
/// zero-config runs must stay byte-identical to pre-negative builds.
struct NegativePolicy {
  bool enabled = false;
  /// Lifetime granted to a negative response with no explicit freshness.
  Duration default_ttl = seconds(60);
  /// Upper bound on any negative lifetime, explicit or default: an origin
  /// misconfigured with `max-age=1y` on a 404 must not pin the error.
  Duration max_ttl = minutes(10);
};

/// True for statuses negative caching applies to (404, 410).
constexpr bool is_negative_status(http::Status s) {
  return s == http::Status::NotFound || s == http::Status::Gone;
}

/// Freshness lifetime for a negative response: explicit lifetime when the
/// origin sent one (clamped to `policy.max_ttl`), else the bounded default.
/// no-store / no-cache still force zero.
Duration negative_freshness_lifetime(const http::Response& response,
                                     const NegativePolicy& policy);

/// is_fresh with the negative lifetime rule substituted.
bool is_negative_fresh(const CacheEntry& entry, TimePoint now,
                       const NegativePolicy& policy);

/// Whether a cache may store `response` (RFC 9111 §3): never no-store or
/// an uncacheable status; a 404/410 only when `negative` is enabled and
/// the response is not no-cache (the bounded negative TTL is its
/// freshness info); anything else only with max-age, no-cache, Expires,
/// ETag or Last-Modified, since without freshness info or a validator it
/// could never be reused. A `shared` cache also refuses `private`
/// responses (§3.5).
bool is_storable(const http::Response& response,
                 const NegativePolicy& negative, bool shared);

}  // namespace catalyst::cache
