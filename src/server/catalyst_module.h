// The CacheCatalyst server module (paper §3) — the modified-Caddy logic:
//
//   * when serving a base HTML file, traverse its DOM, extract same-origin
//     subresource links (following the CSS closure: stylesheets' url() and
//     @import references),
//   * attach a path → ETag map in the X-Etag-Config response header,
//   * inject the Service Worker registration snippet into the HTML,
//   * serve the Service Worker script itself.
//
// Cross-origin resources are excluded (explicitly future work in the
// paper). With `session_learning`, URLs a client fetched on its previous
// visit (including JS-driven fetches the DOM scan cannot see) are merged
// into the map — the paper's proposed extension for dynamic resources.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/etag_config.h"
#include "http/message.h"
#include "server/site.h"
#include "util/types.h"

namespace catalyst::server {

struct CatalystConfig {
  /// Follow stylesheet references (fonts/images/@imports) into the map.
  bool css_closure = true;

  /// Merge session-learned URLs (covers JS-discovered resources).
  bool session_learning = false;

  /// Memoize per-(resource, version) link extraction — the DOM scan — so
  /// repeat serves skip the parse cost. Ablation knob for server overhead.
  bool memoize_scans = true;
};

class CatalystModule {
 public:
  /// Path the injected registration snippet points at.
  static constexpr std::string_view kSwPath = "/cc-sw.js";
  /// Size of the served Service Worker script.
  static constexpr ByteCount kSwScriptSize = KiB(2);

  CatalystModule(const Site& site, CatalystConfig config);

  /// Same-origin resource paths reachable from `resource` at `now`
  /// (HTML links plus, with css_closure, stylesheet references).
  std::vector<std::string> linked_paths(const Resource& resource,
                                        TimePoint now);

  /// Builds the ETag map for a base-HTML serve. `learned_urls` are merged
  /// when session learning is on (unknown/cross-origin entries skipped).
  http::EtagConfig build_map(const Resource& html, TimePoint now,
                             const std::vector<std::string>& learned_urls);

  /// Decorates an outgoing base-HTML response: sets X-Etag-Config (both
  /// 200 and 304 — subresources may have changed even when the HTML has
  /// not) and injects the SW registration into 200 bodies. Returns the
  /// modeled extra server compute time for this serve: the DOM-scan
  /// charge (see memoize_scans) plus 100 ns per map entry. The injected
  /// page is a new Body: the origin's shared version is never written.
  Duration decorate_html(http::Response& response, const Resource& html,
                         TimePoint now,
                         const std::vector<std::string>& learned_urls);

  /// The Service Worker script response (served at kSwPath).
  http::Response serve_sw_script(TimePoint now) const;

  /// Applies the registration-snippet injection decorate_html performs on
  /// 200 HTML bodies (insert before the last </body>, else append).
  /// Public and static so the byte-equivalence oracle can reproduce the
  /// origin's transform on ground-truth content.
  static void inject_registration(std::string& body);

 private:
  /// Extraction of one resource's same-origin links, memoized by version.
  const std::vector<std::string>& extract_links(const Resource& resource,
                                                TimePoint now,
                                                Duration& cost_accum);

  const Site& site_;
  CatalystConfig config_;
  // Keyed by (resource, content version).
  std::map<std::pair<const Resource*, std::uint64_t>,
           std::vector<std::string>>
      scan_memo_;
};

/// Resolves `url` against a base resource path; empty result for
/// cross-origin or unusable references.
std::string resolve_same_origin(const std::string& site_host,
                                const std::string& base_path,
                                const std::string& url);

}  // namespace catalyst::server
