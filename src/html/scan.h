// Content-addressed scan memo: each distinct HTML, CSS or JS body is
// scanned once per thread until the memo is cleared (once per fleet
// shard).
//
// Every user of a site receives byte-identical versions of its page,
// stylesheets and scripts, so the browser's page loader and the
// CacheCatalyst module would otherwise re-parse the same bytes on every
// visit. These wrappers key each scan result by the (FNV-1a digest, size)
// of the body it came from. Only host CPU is saved: callers still charge
// their modeled parse and scan costs in virtual time on every visit.
//
// Scope: thread-local, like the Zipf table cache. A result is a pure
// function of the bytes, so it does not matter which shard scanned a body
// first, and reports stay byte-identical for any --threads. The maps are
// node-based: a returned reference stays valid until clear_scan_memo()
// runs on the same thread, which lets a page load hold it across
// scheduled callbacks. fleet::Shard::run clears the memo once its users
// are replayed, so a worker thread keeps the scans of one shard's
// catalog, not of every catalog it has replayed.
//
// Precondition of every function: digest == fnv1a64(body), the digest
// an http::Body takes once when its bytes are set (Body::digest()).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "html/css.h"
#include "html/link_extract.h"

namespace catalyst::html {

/// Everything a base-HTML scan discovers.
struct PageScan {
  /// extract_resources(*parse(body)): declared subresources in document
  /// order.
  std::vector<DiscoveredResource> resources;
  /// The `@fetch` directives of inline <script>s (no src), flattened in
  /// document order.
  std::vector<std::string> inline_fetches;
};

const PageScan& scan_page(std::string_view body, std::uint64_t digest);

/// extract_css_references(body), memoized.
const std::vector<CssReference>& scan_css(std::string_view body,
                                          std::uint64_t digest);

/// extract_js_fetches(body), memoized.
const std::vector<std::string>& scan_js(std::string_view body,
                                        std::uint64_t digest);

/// Drops this thread's memoized scans. Every reference the functions
/// above returned on this thread dangles afterwards, so call it only when
/// no page load of the thread is in flight.
void clear_scan_memo();

}  // namespace catalyst::html
