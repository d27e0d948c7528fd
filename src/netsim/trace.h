// Per-fetch waterfall traces.
//
// Figure 1 of the paper is exactly such a waterfall (index.html, a.css,
// b.js, c.js, d.jpg across three visit scenarios); bench/fig1_timelines
// renders these traces as text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "http/mime.h"
#include "util/types.h"

namespace catalyst::netsim {

/// Where a resource's bytes ultimately came from.
enum class FetchSource {
  Network,       // full download
  BrowserCache,  // fresh cache hit, no request sent
  NotModified,   // conditional request answered 304 (RTT paid, no body)
  SwCache,       // Service Worker served from its cache (CacheCatalyst hit)
  Push,          // arrived via HTTP/2 Server Push
};

std::string_view to_string(FetchSource source);

/// Byte-equivalence oracle verdict for one serve (check::ByteOracle).
/// Unchecked when no oracle is installed or the serve is unauditable
/// (unknown origin, non-200 status).
enum class ServeClass {
  Unchecked,
  Fresh,         // delivered bytes match the origin's content at fetch time
  AllowedStale,  // bytes differ, but within RFC 9111 freshness — the
                 // staleness the status quo explicitly permits
  Violation,     // bytes differ with no freshness justification: a bug
  PoisonedServe, // delivered bytes carry another request's unkeyed input
                 // (cache-poisoning: reflected X-Forwarded-Host stored
                 // under a key the header does not partition)
  CrossUserLeak, // poisoned bytes identify a *different user's* request —
                 // one user observing another's reflected input
};

std::string_view to_string(ServeClass cls);

struct FetchTrace {
  std::string url;
  http::ResourceClass resource_class = http::ResourceClass::Other;
  TimePoint start{};    // when the browser needed the resource
  TimePoint finish{};   // when its bytes were usable
  FetchSource source = FetchSource::Network;
  ByteCount bytes_down = 0;  // response bytes on the wire (0 for cache hits)
  std::uint32_t status = 200;     // HTTP status of the delivered response
  std::uint64_t body_digest = 0;  // FNV-1a over the delivered body bytes
  ServeClass oracle_class = ServeClass::Unchecked;
};

/// Collects fetch traces for one page load.
class TraceLog {
 public:
  void record(FetchTrace trace) { traces_.push_back(std::move(trace)); }

  /// Appends a default-constructed trace and returns it for in-place
  /// fill — the hot-path form: no intermediate FetchTrace, no string
  /// moves (write `url` directly into the slot).
  FetchTrace& append() { return traces_.emplace_back(); }

  const std::vector<FetchTrace>& traces() const { return traces_; }

  /// Renders an aligned text waterfall:
  ///   index.html |############........| 0.0-82.3ms network 12.4KiB
  std::string render_waterfall(int width = 48) const;

 private:
  std::vector<FetchTrace> traces_;
};

}  // namespace catalyst::netsim
