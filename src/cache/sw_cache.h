// The Service Worker's cache (paper §3): stores every non-no-store
// response keyed by URL together with its ETag, with **no TTL** — entries
// never expire on their own. Validity is decided per page load by
// comparing stored ETags against the fresh X-Etag-Config map, which is
// exactly what makes max-age tuning unnecessary under CacheCatalyst.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cache/stats.h"
#include "cache/storage.h"
#include "http/etag.h"

namespace catalyst::cache {

/// CacheStats core plus the map-comparison outcomes only the SW cache has.
struct SwCacheStats : CacheStats {
  std::uint64_t etag_mismatches = 0;
  /// Entries whose body no longer matched the digest taken at store time;
  /// they are evicted rather than served.
  std::uint64_t integrity_failures = 0;
};

class SwCache {
 public:
  explicit SwCache(ByteCount capacity = MiB(256)) : store_(capacity) {}

  /// Stores a response unless it carries no-store (the one header the
  /// paper's design still honors) or lacks an ETag (nothing to compare).
  /// Returns true when stored.
  bool put(const std::string& url, http::Response response);

  /// Returns the stored response iff its ETag weak-matches
  /// `expected_etag` (from the X-Etag-Config map). A mismatch means the
  /// resource changed on the origin: the entry is NOT returned and the
  /// caller must fetch.
  const http::Response* match(const std::string& url,
                              const http::Etag& expected_etag);

  /// Stored ETag for a URL, if any (used to decide revalidation fallbacks
  /// for resources missing from the map).
  std::optional<http::Etag> stored_etag(const std::string& url) const;

  /// Fault/test hook: invalidates the stored digest for `url` so the next
  /// match sees an integrity failure (simulated storage corruption).
  void corrupt(const std::string& url);

  bool contains(const std::string& url) const {
    return store_.peek(url) != nullptr;
  }
  void remove(const std::string& url) { store_.erase(url); }

  /// Snapshot with the storage engine's eviction count folded in.
  SwCacheStats stats() const {
    SwCacheStats s = stats_;
    s.evictions = store_.evictions();
    return s;
  }
  std::size_t entry_count() const { return store_.entry_count(); }
  ByteCount size_bytes() const { return store_.size_bytes(); }

 private:
  LruStore store_;
  SwCacheStats stats_;
};

}  // namespace catalyst::cache
