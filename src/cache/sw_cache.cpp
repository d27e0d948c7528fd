#include "cache/sw_cache.h"

#include "util/hash.h"

namespace catalyst::cache {

bool SwCache::put(const std::string& url, http::Response response) {
  if (response.cache_control().no_store || !response.etag()) return false;
  CacheEntry entry;
  entry.body_digest = response.body.digest();
  entry.response = std::move(response);
  return store_.put(url, std::move(entry));
}

SwCache::Match SwCache::match(const std::string& url,
                              const http::Etag& expected_etag) {
  CacheEntry* entry = store_.get(url);
  if (entry == nullptr) return {};
  if (entry->body_digest != entry->response.body.digest()) {
    // The stored bytes rotted: evict, never serve. The caller falls back
    // to a conditional GET regardless of what the map says.
    store_.erase(url);
    return {nullptr, true};
  }
  const auto stored = entry->etag();
  if (stored && stored->weak_equals(expected_etag)) {
    return {&entry->response, false};
  }
  return {};
}

void SwCache::corrupt(const std::string& url) {
  if (CacheEntry* entry = store_.get(url)) {
    entry->body_digest ^= 0x1ull;
  }
}

std::optional<http::Etag> SwCache::stored_etag(const std::string& url) const {
  const CacheEntry* entry = store_.peek(url);
  if (entry == nullptr) return std::nullopt;
  return entry->etag();
}

}  // namespace catalyst::cache
