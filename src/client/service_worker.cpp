#include "client/service_worker.h"

#include "http/headers.h"

namespace catalyst::client {

CatalystServiceWorker::MapInstall CatalystServiceWorker::install_map_from(
    const http::Response& navigation_response) {
  const auto header =
      navigation_response.headers.get(http::kXEtagConfig);
  if (!header) {
    // Lost or stripped in transit. Any previous map's tokens expired with
    // the page load they arrived on, so drop it and run degraded.
    map_.reset();
    degraded_ = true;
    return MapInstall::Missing;
  }
  auto parsed = http::EtagConfig::parse(*header);
  if (!parsed) {
    // Truncated/garbled map: worse than none — never trust it.
    map_.reset();
    degraded_ = true;
    return MapInstall::Malformed;
  }
  map_ = std::move(*parsed);
  degraded_ = false;
  return MapInstall::Installed;
}

CatalystServiceWorker::InterceptResult CatalystServiceWorker::try_serve(
    const std::string& path, TimePoint now) {
  // A remembered 404/410 answers before the map is consulted: the map
  // only vouches for resources that exist.
  if (const auto it = negative_entries_.find(path);
      it != negative_entries_.end()) {
    if (cache::may_serve(it->second, now, negative_,
                         /*allow_heuristic=*/false)) {
      return {Decision::ServeFromCache, &it->second.response, false};
    }
    negative_entries_.erase(it);
  }
  if (!map_) {
    if (degraded_) {
      // Degraded mode: with no trustworthy map, forward as a conditional
      // GET — correctness must not rest on the HTTP cache's TTLs.
      return {Decision::ForwardRevalidate, nullptr, true};
    }
    return {Decision::ForwardDefault, nullptr, false};
  }
  const auto expected = map_->find(path);
  if (!expected) return {Decision::ForwardDefault, nullptr, false};
  const cache::SwCache::Match cached = cache_.match(path, *expected);
  if (cached.response == nullptr) {
    // Covered but changed (or never cached): the map is authoritative
    // that our copy is unusable. A body that failed its integrity check
    // lands here too — that one counts as a degradation fallback.
    return {Decision::ForwardRevalidate, nullptr, cached.integrity_failure};
  }
  return {Decision::ServeFromCache, cached.response, false};
}

void CatalystServiceWorker::observe_response(
    const std::string& path, http::Response response,
    TimePoint response_time) {
  if (response.status != http::Status::Ok) {
    if (negative_.enabled && cache::is_negative_status(response.status) &&
        !response.cache_control().no_store &&
        !response.cache_control().no_cache) {
      cache::CacheEntry entry;
      entry.response = std::move(response);
      entry.request_time = response_time;
      entry.response_time = response_time;
      negative_entries_.insert_or_assign(path, std::move(entry));
    }
    return;
  }
  // A path that exists again supersedes any remembered error.
  negative_entries_.erase(path);
  cache_.put(path, std::move(response));
}

}  // namespace catalyst::client
