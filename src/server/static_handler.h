// Static file serving with validators and conditional-GET support — what
// a stock Caddy/nginx does before any CacheCatalyst logic is added.
#pragma once

#include <cstdint>

#include "http/conditional.h"
#include "http/message.h"
#include "server/site.h"

namespace catalyst::server {

struct StaticHandlerStats {
  std::uint64_t requests = 0;
  std::uint64_t full_responses = 0;
  std::uint64_t not_modified = 0;
  std::uint64_t not_found = 0;
  std::uint64_t gone = 0;
  ByteCount body_bytes_sent = 0;
};

class StaticHandler {
 public:
  explicit StaticHandler(const Site& site) : site_(site) {}

  /// Builds the response for `request` with the site's content as of
  /// `now`: 200 with validators and Cache-Control, 304 when If-None-Match
  /// matches, 404 for unknown paths.
  http::Response handle(const http::Request& request, TimePoint now);

  const StaticHandlerStats& stats() const { return stats_; }
  const Site& site() const { return site_; }

 private:
  const Site& site_;
  StaticHandlerStats stats_;
};

}  // namespace catalyst::server
