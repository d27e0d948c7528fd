// The browser's HTTP cache decision engine (RFC 9111) — the status-quo
// behaviour the paper measures against.
//
// For each needed resource the cache answers one of:
//   FreshHit          serve stored bytes, zero network cost (Fig. 1b a.css)
//   NeedsRevalidation stored but stale / no-cache: conditional GET, one
//                     RTT minimum (Fig. 1b b.js, d.jpg)
//   Miss              nothing stored: full fetch
#pragma once

#include <cstdint>
#include <string>

#include "cache/freshness.h"
#include "cache/storage.h"
#include "util/types.h"

namespace catalyst::cache {

enum class LookupDecision { Miss, FreshHit, NeedsRevalidation };

struct LookupResult {
  LookupDecision decision = LookupDecision::Miss;
  /// Stored entry for FreshHit / NeedsRevalidation; owned by the cache.
  /// Valid until that entry is removed, replaced by a store() or evicted
  /// (see LruStore::get).
  const CacheEntry* entry = nullptr;
};

class HttpCache {
 public:
  /// `allow_heuristic` enables §4.2.2 heuristic freshness for responses
  /// with no explicit lifetime (browsers do this; it can serve stale
  /// content — one of the risks the paper's design avoids).
  explicit HttpCache(ByteCount capacity = MiB(256),
                     bool allow_heuristic = true,
                     NegativePolicy negative = NegativePolicy{});

  /// Looks up `url` at time `now` and classifies the required action.
  LookupResult lookup(const std::string& url, TimePoint now);

  /// Stores a response if the private-cache storability rule
  /// (is_storable) allows. Returns true when stored.
  bool store(const std::string& url, http::Response response,
             TimePoint request_time, TimePoint response_time);

  /// Applies a 304 Not Modified: refreshes the stored entry's metadata
  /// (Cache-Control, Expires, Date, ETag) and timestamps (§4.3.4).
  /// Returns the refreshed entry, or nullptr if nothing was stored.
  const CacheEntry* apply_not_modified(const std::string& url,
                                       const http::Response& not_modified,
                                       TimePoint request_time,
                                       TimePoint response_time);

  bool contains(const std::string& url) const {
    return store_.peek(url) != nullptr;
  }
  void remove(const std::string& url) { store_.erase(url); }

  std::size_t entry_count() const { return store_.entry_count(); }
  ByteCount size_bytes() const { return store_.size_bytes(); }

  /// All stored URLs (MRU first). Used to build cache digests.
  std::vector<std::string> stored_urls() const {
    return store_.keys_mru_order();
  }

 private:
  LruStore store_;
  bool allow_heuristic_;
  NegativePolicy negative_;
};

}  // namespace catalyst::cache
