// HTTP/2 Server-Push policies (related-work baseline, paper §5).
//
// Push-all is the simple policy the paper criticizes: it avoids request
// RTTs but resends resources the client already has, wasting bandwidth.
// Push-learned uses the same session log as CacheCatalyst's extension and
// pushes only what the client fetched last visit — a strong push variant.
#pragma once

#include <vector>

#include "netsim/network.h"
#include "server/catalyst_module.h"
#include "server/session.h"
#include "server/site.h"
#include "server/static_handler.h"

namespace catalyst::server {

enum class PushPolicy {
  None,
  All,      // push every statically linked subresource
  Learned,  // push what this session fetched on its previous visit
  Digest,   // push what the client's Cache-Digest says it lacks
};

class PushModule {
 public:
  PushModule(const Site& site, PushPolicy policy);

  /// Builds the pushed responses accompanying a base-HTML serve. `linker`
  /// provides the link closure (shared with CatalystModule so both see the
  /// same dependency view); `learned_urls` backs the Learned policy;
  /// `request` supplies the Cache-Digest header for the Digest policy.
  std::vector<netsim::PushedResponse> build_pushes(
      const http::Request& request, const Resource& html, TimePoint now,
      CatalystModule& linker, const std::vector<std::string>& learned_urls,
      StaticHandler& handler);

 private:
  const Site& site_;
  PushPolicy policy_;
};

}  // namespace catalyst::server
