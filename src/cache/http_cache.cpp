#include "cache/http_cache.h"

#include "cache/freshness.h"
#include "util/strings.h"

namespace catalyst::cache {

HttpCache::HttpCache(ByteCount capacity, bool allow_heuristic,
                     NegativePolicy negative)
    : store_(capacity),
      allow_heuristic_(allow_heuristic),
      negative_(negative) {}

LookupResult HttpCache::lookup(const std::string& url, TimePoint now) {
  CacheEntry* entry = store_.get(url);
  if (entry == nullptr) return LookupResult{LookupDecision::Miss, nullptr};
  if (may_serve(*entry, now, negative_, allow_heuristic_)) {
    return LookupResult{LookupDecision::FreshHit, entry};
  }
  // An expired negative entry (stored 404/410) is erased: revalidating an
  // error body is pointless, the next reference pays the origin again.
  if (is_negative_status(entry->response.status)) {
    store_.erase(url);
    return LookupResult{LookupDecision::Miss, nullptr};
  }
  // Stale (or always-revalidate): usable only after validation — but only
  // if we hold a validator; otherwise it is as good as a miss.
  if (has_validator(*entry)) {
    return LookupResult{LookupDecision::NeedsRevalidation, entry};
  }
  return LookupResult{LookupDecision::Miss, nullptr};
}

bool HttpCache::store(const std::string& url, http::Response response,
                      TimePoint request_time, TimePoint response_time) {
  if (!is_storable(response, negative_, /*shared=*/false)) return false;
  CacheEntry entry;
  entry.response = std::move(response);
  entry.request_time = request_time;
  entry.response_time = response_time;
  return store_.put(url, std::move(entry));
}

const CacheEntry* HttpCache::apply_not_modified(
    const std::string& url, const http::Response& not_modified,
    TimePoint request_time, TimePoint response_time) {
  CacheEntry* entry = store_.get(url);
  if (entry == nullptr) return nullptr;
  // Refresh stored metadata from the 304 (RFC 9111 §4.3.4): validators and
  // freshness-related headers.
  for (const auto& field : not_modified.headers.fields()) {
    if (iequals(field.name, http::kEtagHeader) ||
        iequals(field.name, http::kCacheControl) ||
        iequals(field.name, http::kExpires) ||
        iequals(field.name, http::kDate) ||
        iequals(field.name, http::kLastModified)) {
      entry->response.headers.set(field.name, field.value);
    }
  }
  entry->request_time = request_time;
  entry->response_time = response_time;
  return entry;
}

}  // namespace catalyst::cache
