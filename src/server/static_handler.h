// Static file serving with validators and conditional-GET support — what
// a stock Caddy/nginx does before any CacheCatalyst logic is added.
#pragma once

#include "http/conditional.h"
#include "http/message.h"
#include "server/site.h"

namespace catalyst::server {

class StaticHandler {
 public:
  explicit StaticHandler(const Site& site) : site_(site) {}

  /// Builds the response for `request` with the site's content as of
  /// `now`: 200 with validators and Cache-Control, 304 when If-None-Match
  /// matches, 404 for unknown paths.
  http::Response handle(const http::Request& request, TimePoint now);

 private:
  const Site& site_;
};

}  // namespace catalyst::server
