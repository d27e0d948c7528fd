// The CacheCatalyst Service Worker (paper §3, client side).
//
// A domain-scoped interception layer: once registered (by the snippet the
// server injects), it sees every request for its origin. On each base-HTML
// response it ingests the fresh X-Etag-Config map; for subresources it
// compares the map's ETag with its cached copy's ETag and either serves
// the cached bytes immediately (zero RTTs) or forwards the request and
// re-caches the new version.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cache/freshness.h"
#include "cache/sw_cache.h"
#include "http/etag_config.h"
#include "http/message.h"

namespace catalyst::client {

class CatalystServiceWorker {
 public:
  explicit CatalystServiceWorker(
      ByteCount cache_capacity = MiB(256),
      cache::NegativePolicy negative = cache::NegativePolicy{})
      : cache_(cache_capacity), negative_(negative) {}

  /// Registration lifecycle: the browser registers the worker after the
  /// first visit delivers the registration snippet + SW script.
  bool registered() const { return registered_; }
  void set_registered() { registered_ = true; }
  void unregister() {
    registered_ = false;
    map_.reset();
    degraded_ = false;
  }

  enum class MapInstall { Installed, Missing, Malformed };

  /// Ingests the X-Etag-Config header from a base-HTML response (200 or
  /// 304). Replaces any previous map — tokens are only trusted for the
  /// page load they arrived with. A missing or malformed header drops the
  /// previous map too (its tokens are just as expired) and enters
  /// degraded mode: subresources forward as conditional GETs until a
  /// fresh map arrives, so correctness never rests on TTL heuristics.
  MapInstall install_map_from(const http::Response& navigation_response);

  /// True while operating without a trustworthy map (see install_map_from).
  bool degraded() const { return degraded_; }

  /// The currently installed map, if any.
  const http::EtagConfig* current_map() const {
    return map_ ? &*map_ : nullptr;
  }

  /// Interception decision for a subresource request.
  enum class Decision {
    /// The map vouches for the cached copy: serve it, zero RTTs.
    ServeFromCache,
    /// The map covers the path but the cached copy is absent or outdated:
    /// the resource changed on the origin, so the fetch must revalidate /
    /// download — the HTTP cache's TTL opinion must NOT be trusted.
    ForwardRevalidate,
    /// Not covered by the map (JS-discovered, cross-origin, or no map):
    /// CacheCatalyst has no authority here; plain fetch() semantics (the
    /// status-quo HTTP cache decides).
    ForwardDefault,
  };

  struct InterceptResult {
    Decision decision = Decision::ForwardDefault;
    /// Set for ServeFromCache; owned by the SW cache and invalidated by
    /// subsequent stores.
    const http::Response* response = nullptr;
    /// The forward is a degradation fallback (untrustworthy map or a
    /// cached body that failed its integrity check), not a normal miss.
    bool fallback = false;
  };

  /// `now` bounds the negative-cache check; the Catalyst map path is
  /// time-independent (validity comes from ETag comparison, not TTLs).
  InterceptResult try_serve(const std::string& path, TimePoint now);

  /// Stores a network response passing through the worker (honors
  /// no-store; requires an ETag to be useful — both checked by SwCache).
  /// With negative caching enabled, 404/410 responses are remembered under
  /// the policy's bounded TTL (`response_time` anchors their age).
  void observe_response(const std::string& path, http::Response response,
                        TimePoint response_time);

  const cache::SwCache& cache() const { return cache_; }
  cache::SwCache& cache() { return cache_; }

 private:
  bool registered_ = false;
  bool degraded_ = false;
  std::optional<http::EtagConfig> map_;
  cache::SwCache cache_;
  cache::NegativePolicy negative_;
  /// Negative entries live outside the SwCache: they have no ETag to
  /// compare against the map, only a bounded lifetime.
  std::map<std::string, cache::CacheEntry> negative_entries_;
};

}  // namespace catalyst::client
