#include "server/catalyst_module.h"

#include <algorithm>
#include <unordered_map>

#include "html/generate.h"
#include "html/scan.h"
#include "util/hash.h"
#include "util/url.h"

namespace catalyst::server {

namespace {

/// Modeled server compute cost of scanning one KiB of HTML/CSS.
constexpr Duration kScanCostPerKib = microseconds(20);

/// The registration snippet injected before </body> (byte-for-byte what a
/// real deployment would add, so its size cost is realistic).
std::string registration_snippet() {
  return std::string("<script>if('serviceWorker' in navigator)"
                     "navigator.serviceWorker.register('") +
         std::string(CatalystModule::kSwPath) + "');</script>";
}

/// Served body digest -> digest of that body after inject_registration.
using DigestMemo = std::unordered_map<std::uint64_t, std::uint64_t>;

DigestMemo& tls_injected_digests() {
  thread_local DigestMemo memo;
  return memo;
}

/// FNV-1a digest of a served base-HTML body after inject_registration,
/// memoized by the served body's digest. The injection is a pure function
/// of the bytes, so the memo is thread-local like html/scan.h's and every
/// user's module on the thread shares it; the client then never re-hashes
/// the decorated page. Precondition: injected == the served body with the
/// registration injected.
std::uint64_t injected_digest(std::uint64_t served_digest,
                              const std::string& injected) {
  const auto [it, inserted] = tls_injected_digests().try_emplace(
      served_digest);
  if (inserted) it->second = fnv1a64(injected);
  return it->second;
}

}  // namespace

std::string resolve_same_origin(const std::string& site_host,
                                const std::string& base_path,
                                const std::string& url) {
  const auto parsed = Url::parse(url);
  if (!parsed) return {};
  if (parsed->is_absolute() || !parsed->host.empty()) {
    if (parsed->host != site_host) return {};  // cross-origin: future work
    return parsed->path;
  }
  Url base;
  base.scheme = "https";
  base.host = site_host;
  base.path = base_path;
  return base.resolve(*parsed).path;
}

CatalystModule::CatalystModule(const Site& site, CatalystConfig config)
    : site_(site), config_(config) {}

const std::vector<std::string>& CatalystModule::extract_links(
    const Resource& resource, TimePoint now, Duration& cost_accum) {
  const std::pair key{&resource, resource.version_at(now)};
  if (config_.memoize_scans) {
    if (const auto it = scan_memo_.find(key); it != scan_memo_.end()) {
      return it->second;
    }
  }
  const std::string& content = resource.content_at(now);
  cost_accum += seconds_f(to_seconds(kScanCostPerKib) *
                          (static_cast<double>(content.size()) / 1024.0));

  std::vector<std::string> links;
  const std::uint64_t digest = resource.content_digest_at(now);
  if (resource.resource_class() == http::ResourceClass::Html) {
    for (const html::DiscoveredResource& dr :
         html::scan_page(content, digest).resources) {
      std::string path =
          resolve_same_origin(site_.host(), resource.path(), dr.url);
      if (!path.empty()) links.push_back(std::move(path));
    }
  } else if (resource.resource_class() == http::ResourceClass::Css) {
    for (const html::CssReference& ref : html::scan_css(content, digest)) {
      std::string path =
          resolve_same_origin(site_.host(), resource.path(), ref.url);
      if (!path.empty()) links.push_back(std::move(path));
    }
  }
  // Deduplicate, preserving first-seen order.
  std::vector<std::string> unique;
  for (std::string& link : links) {
    if (std::find(unique.begin(), unique.end(), link) == unique.end()) {
      unique.push_back(std::move(link));
    }
  }
  // Always store (storage doubles as the return buffer); the memoize flag
  // only controls whether stored results are *reused* above.
  std::vector<std::string>& slot = scan_memo_[key];
  slot = std::move(unique);
  return slot;
}

std::vector<std::string> CatalystModule::linked_paths(
    const Resource& resource, TimePoint now) {
  Duration ignored = Duration::zero();
  std::vector<std::string> result = extract_links(resource, now, ignored);
  if (!config_.css_closure) return result;

  // Follow CSS resources (including @imports of @imports) breadth-first.
  std::vector<std::string> frontier = result;
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& path : frontier) {
      const Resource* linked = site_.find(path);
      if (linked == nullptr ||
          linked->resource_class() != http::ResourceClass::Css) {
        continue;
      }
      for (const std::string& sub : extract_links(*linked, now, ignored)) {
        if (std::find(result.begin(), result.end(), sub) == result.end()) {
          result.push_back(sub);
          next.push_back(sub);
        }
      }
    }
    frontier = std::move(next);
  }
  return result;
}

http::EtagConfig CatalystModule::build_map(
    const Resource& html, TimePoint now,
    const std::vector<std::string>& learned_urls) {
  http::EtagConfig map;
  for (const std::string& path : linked_paths(html, now)) {
    if (const Resource* resource = site_.find(path)) {
      map.add(path, resource->etag_at(now));
    }
  }
  if (config_.session_learning) {
    for (const std::string& url : learned_urls) {
      const std::string path =
          resolve_same_origin(site_.host(), html.path(), url);
      if (path.empty() || map.find(path)) continue;
      if (const Resource* resource = site_.find(path)) {
        map.add(path, resource->etag_at(now));
      }
    }
  }
  return map;
}

Duration CatalystModule::decorate_html(
    http::Response& response, const Resource& html, TimePoint now,
    const std::vector<std::string>& learned_urls) {
  Duration cost = Duration::zero();
  // The DOM-scan charge: only the page's own scan is charged, and only
  // when it runs (every serve with memoize_scans off).
  extract_links(html, now, cost);
  const http::EtagConfig map = build_map(html, now, learned_urls);
  response.headers.set(http::kXEtagConfig, map.encode());

  if (response.status == http::Status::Ok) {
    const std::uint64_t served = response.body_digest();
    const std::size_t before = response.body.size();
    inject_registration(response.body);
    response.prime_body_digest(injected_digest(served, response.body));
    if (response.declared_body_size > 0) {
      response.declared_body_size += response.body.size() - before;
    }
    response.finalize(now);  // refresh Content-Length
  }
  // Map assembly cost: one ETag lookup per entry (~100ns each, modeled).
  cost += nanoseconds(static_cast<std::int64_t>(100 * map.size()));
  return cost;
}

void CatalystModule::clear_injected_digests() {
  tls_injected_digests() = DigestMemo{};
}

void CatalystModule::inject_registration(std::string& body) {
  const std::string snippet = registration_snippet();
  const auto pos = body.rfind("</body>");
  if (pos != std::string::npos) {
    body.insert(pos, snippet);
  } else {
    body += snippet;
  }
}

http::Response CatalystModule::serve_sw_script(TimePoint now) const {
  http::Response resp = http::Response::make(http::Status::Ok);
  resp.body = html::make_js({}, kSwScriptSize, /*seed=*/0xCC57);
  resp.headers.set(http::kContentType,
                   http::mime_type(http::ResourceClass::Script));
  // The SW script itself revalidates (browsers special-case SW updates).
  resp.headers.set(http::kCacheControl,
                   http::CacheControl::revalidate_always().to_string());
  resp.headers.set(http::kEtagHeader,
                   http::make_content_etag(resp.body).to_string());
  resp.finalize(now);
  return resp;
}

}  // namespace catalyst::server
