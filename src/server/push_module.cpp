#include "server/push_module.h"

#include <algorithm>

#include "util/bloom.h"

namespace catalyst::server {

PushModule::PushModule(const Site& site, PushPolicy policy)
    : site_(site), policy_(policy) {}

std::vector<netsim::PushedResponse> PushModule::build_pushes(
    const http::Request& request, const Resource& html, TimePoint now,
    CatalystModule& linker, const std::vector<std::string>& learned_urls,
    StaticHandler& handler) {
  std::vector<std::string> paths;
  switch (policy_) {
    case PushPolicy::None:
      return {};
    case PushPolicy::All:
      paths = linker.linked_paths(html, now);
      break;
    case PushPolicy::Learned: {
      for (const std::string& url : learned_urls) {
        std::string path =
            resolve_same_origin(site_.host(), html.path(), url);
        if (!path.empty() &&
            std::find(paths.begin(), paths.end(), path) == paths.end()) {
          paths.push_back(std::move(path));
        }
      }
      break;
    }
    case PushPolicy::Digest: {
      // Push the static closure minus whatever the client's digest says
      // it already holds (presence, not freshness — digests cannot say
      // whether the copy is current, the weakness catalyst fixes).
      std::optional<BloomFilter> digest;
      if (const auto header = request.headers.get("Cache-Digest")) {
        digest = BloomFilter::deserialize(*header);
      }
      for (std::string& path : linker.linked_paths(html, now)) {
        if (digest && digest->may_contain(path)) continue;
        paths.push_back(std::move(path));
      }
      break;
    }
  }

  std::vector<netsim::PushedResponse> pushes;
  pushes.reserve(paths.size());
  for (const std::string& path : paths) {
    if (site_.find(path) == nullptr) continue;
    http::Request synthetic = http::Request::get(path, site_.host());
    http::Response response = handler.handle(synthetic, now);
    if (response.status != http::Status::Ok) continue;
    pushes.push_back(netsim::PushedResponse{path, std::move(response)});
  }
  return pushes;
}

}  // namespace catalyst::server
