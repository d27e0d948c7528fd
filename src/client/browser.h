// The browser emulator: HTTP cache + Service Workers + connection pools
// composed into the fetch pipeline, plus the page-load entry point.
//
// Pipeline per resource (the order mirrors Chrome):
//   1. Service Worker interception (when registered for the origin):
//      a CacheCatalyst map hit serves cached bytes with zero RTTs; a miss
//      forwards with revalidate semantics (the SW never trusts max-age —
//      the map is the freshness authority, so forwarded fetches carry
//      If-None-Match instead of serving possibly-stale fresh hits).
//   2. Same-visit push store (HTTP/2 pushed responses awaiting a claim).
//   3. HTTP cache (RFC 9111): fresh hit / revalidate / miss.
//   4. Network via per-origin connection pools.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "cache/http_cache.h"
#include "client/fetcher.h"
#include "client/metrics.h"
#include "client/service_worker.h"
#include "netsim/network.h"
#include "util/url.h"

namespace catalyst::client {

/// Oracle hook (perfect-knowledge lower bound): given a URL and the cached
/// ETag, returns whether the cached copy is current — with zero network
/// cost. Unset for all realistic configurations.
using OracleValidator =
    std::function<bool(const Url& url, const http::Etag& cached_etag)>;

/// Byte-equivalence serve classifier (check::ByteOracle::classify bound by
/// the testbed). Measurement-only: called once per recorded resource with
/// the delivered outcome; returns the oracle's verdict.
using ServeClassifier =
    std::function<netsim::ServeClass(const Url& url,
                                     const FetchOutcome& outcome)>;

struct BrowserConfig {
  std::string client_host = "client";
  std::string browser_id = "client-0";  // session cookie value
  FetcherConfig fetcher;
  ProcessingModel processing;
  ByteCount http_cache_capacity = MiB(256);
  ByteCount sw_cache_capacity = MiB(256);
  /// Master switch for Service Worker support (CacheCatalyst requires it;
  /// baselines run with it off so registration snippets are inert).
  bool service_workers_enabled = false;

  /// Negative caching of 404/410 responses at the HTTP cache and SW
  /// (off by default — zero-config runs stay byte-identical).
  cache::NegativePolicy negative;

  /// Attach a Cache-Digest header (bloom filter over cached same-origin
  /// paths) to navigation requests — the cache-digest push baseline.
  bool send_cache_digest = false;

  /// Deliberate bug for oracle self-tests (StaleServeStrategy): treat any
  /// cached entry as a fresh hit, skipping revalidation past its freshness
  /// lifetime. The byte-equivalence oracle must flag the resulting serves.
  bool mutate_serve_stale = false;
};

class PageLoader;

class Browser {
 public:
  Browser(netsim::Network& network, BrowserConfig config);
  ~Browser();

  Browser(const Browser&) = delete;
  Browser& operator=(const Browser&) = delete;

  /// Loads a page to OnLoad; the result is delivered via the event loop.
  /// One load at a time. Post-onload work (SW registration) continues
  /// after the callback.
  void load_page(const Url& page_url,
                 std::function<void(PageLoadResult)> on_done);

  /// Single-resource fetch through the full pipeline.
  void fetch(const Url& url, bool is_navigation,
             const std::optional<Url>& referer,
             std::function<void(FetchOutcome)> on_done);

  /// Ends the current visit: drops connections and unclaimed pushes
  /// (browser caches and Service Workers persist).
  void end_visit();

  netsim::EventLoop& loop() { return network_.loop(); }
  const BrowserConfig& config() const { return config_; }
  const ProcessingModel& processing() const { return config_.processing; }

  cache::HttpCache& http_cache() { return http_cache_; }
  Fetcher& fetcher() { return fetcher_; }

  /// Service worker for an origin host (created on demand, initially
  /// unregistered).
  CatalystServiceWorker& service_worker(const std::string& host);
  bool sw_registered(const std::string& host);

  void set_oracle(OracleValidator oracle) { oracle_ = std::move(oracle); }

  /// Measurement-only staleness audit: when set, every response served
  /// from a cache is checked against the origin's current ETag and
  /// FetchOutcome::stale is flagged on mismatch. Unlike the oracle this
  /// never changes behaviour — it only observes.
  void set_staleness_audit(OracleValidator audit) {
    audit_ = std::move(audit);
  }

  /// Byte-equivalence oracle hook; measurement-only like the audit.
  void set_serve_classifier(ServeClassifier classifier) {
    classifier_ = std::move(classifier);
  }

  /// Runs the installed serve classifier (Unchecked when none is set).
  netsim::ServeClass classify_serve(const Url& url,
                                    const FetchOutcome& outcome) const {
    return classifier_ ? classifier_(url, outcome)
                       : netsim::ServeClass::Unchecked;
  }

  /// Seeds an origin's SW cache from responses observed in the completing
  /// page load (install-time precache; served from browser memory, no
  /// network) and marks it registered.
  void register_service_worker(
      const std::string& host,
      const std::map<std::string, http::Response>& observed);

 private:
  friend class PageLoader;

  std::string push_key(const std::string& origin_host,
                       const std::string& target) const;
  void on_push(const std::string& origin_host, netsim::PushedResponse push);
  void on_promise(const std::string& origin_host, const std::string& target);
  http::Request build_request(const Url& url, bool is_navigation,
                              const std::optional<Url>& referer) const;
  void network_fetch(const Url& url, bool is_navigation,
                     const std::optional<Url>& referer,
                     bool force_revalidate, TimePoint start,
                     std::function<void(FetchOutcome)> on_done);
  void deliver(TimePoint start, Duration extra_delay, FetchOutcome outcome,
               std::function<void(FetchOutcome)> on_done);

  netsim::Network& network_;
  BrowserConfig config_;
  cache::HttpCache http_cache_;
  Fetcher fetcher_;
  std::map<std::string, std::unique_ptr<CatalystServiceWorker>> workers_;
  std::map<std::string, http::Response> pending_pushes_;  // by full URL
  // Promised-but-not-yet-arrived push targets, and fetches waiting on them.
  std::set<std::string> promised_;
  std::map<std::string,
           std::vector<std::pair<TimePoint, std::function<void(FetchOutcome)>>>>
      promise_waiters_;
  OracleValidator oracle_;
  OracleValidator audit_;
  ServeClassifier classifier_;
  std::shared_ptr<PageLoader> current_loader_;
};

}  // namespace catalyst::client
