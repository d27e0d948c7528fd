// The Service Worker's cache (paper §3): stores every non-no-store
// response keyed by URL together with its ETag, with **no TTL** — entries
// never expire on their own. Validity is decided per page load by
// comparing stored ETags against the fresh X-Etag-Config map, which is
// exactly what makes max-age tuning unnecessary under CacheCatalyst.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cache/storage.h"
#include "http/etag.h"

namespace catalyst::cache {

class SwCache {
 public:
  explicit SwCache(ByteCount capacity = MiB(256)) : store_(capacity) {}

  /// Stores a response unless it carries no-store (the one header the
  /// paper's design still honors) or lacks an ETag (nothing to compare).
  /// Returns true when stored.
  bool put(const std::string& url, http::Response response);

  struct Match {
    /// The stored response iff its ETag weak-matches the expected one.
    const http::Response* response = nullptr;
    /// The stored body no longer matched the digest taken at store time;
    /// the entry was evicted rather than served.
    bool integrity_failure = false;
  };

  /// Looks up `url` against `expected_etag` (from the X-Etag-Config map).
  /// A mismatch means the resource changed on the origin: no response is
  /// returned and the caller must fetch.
  Match match(const std::string& url, const http::Etag& expected_etag);

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

  std::size_t entry_count() const { return store_.entry_count(); }
  ByteCount size_bytes() const { return store_.size_bytes(); }

 private:
  LruStore store_;
};

}  // namespace catalyst::cache
