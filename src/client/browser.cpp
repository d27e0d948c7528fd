#include "client/browser.h"

#include <stdexcept>

#include "client/page_loader.h"
#include "http/conditional.h"
#include "obs/recorder.h"
#include "obs/selfprof.h"
#include "server/session.h"
#include "util/bloom.h"

namespace catalyst::client {

Browser::Browser(netsim::Network& network, BrowserConfig config)
    : network_(network),
      config_(std::move(config)),
      http_cache_(config_.http_cache_capacity, /*allow_heuristic=*/true,
                  config_.negative),
      fetcher_(network, config_.client_host, config_.fetcher) {
  fetcher_.set_push_handler(
      [this](const std::string& origin, netsim::PushedResponse push) {
        on_push(origin, std::move(push));
      });
  fetcher_.set_promise_handler(
      [this](const std::string& origin, const std::string& target) {
        on_promise(origin, target);
      });
  fetcher_.set_hints_handler(
      [this](const std::string& origin,
             const std::vector<std::string>& urls) {
        if (current_loader_) current_loader_->on_preload_hints(origin, urls);
      });
}

Browser::~Browser() = default;

CatalystServiceWorker& Browser::service_worker(const std::string& host) {
  auto& slot = workers_[host];
  if (!slot) {
    slot = std::make_unique<CatalystServiceWorker>(
        config_.sw_cache_capacity, config_.negative);
  }
  return *slot;
}

bool Browser::sw_registered(const std::string& host) {
  if (!config_.service_workers_enabled) return false;
  const auto it = workers_.find(host);
  return it != workers_.end() && it->second->registered();
}

void Browser::register_service_worker(
    const std::string& host,
    std::map<std::string, http::Response> observed) {
  if (!config_.service_workers_enabled) return;
  CatalystServiceWorker& sw = service_worker(host);
  for (auto& [path, response] : observed) {
    sw.observe_response(path, std::move(response), loop().now());
  }
  sw.set_registered();
}

std::string Browser::push_key(const std::string& origin_host,
                              const std::string& target) const {
  Url url;
  url.scheme = config_.fetcher.tls ? "https" : "http";
  url.host = origin_host;
  url.path = target;
  return url.to_string();
}

void Browser::on_promise(const std::string& origin_host,
                         const std::string& target) {
  promised_.insert(push_key(origin_host, target));
}

void Browser::on_push(const std::string& origin_host,
                      netsim::PushedResponse push) {
  const std::string key = push_key(origin_host, push.target);
  promised_.erase(key);
  // Pushed responses are cacheable like any other (claimed or not).
  http_cache_.store(key, push.response, loop().now(), loop().now());

  // Satisfy fetches that were parked on the promise.
  if (const auto waiters = promise_waiters_.find(key);
      waiters != promise_waiters_.end()) {
    auto parked = std::move(waiters->second);
    promise_waiters_.erase(waiters);
    for (auto& [start, on_done] : parked) {
      FetchOutcome outcome;
      outcome.response = push.response;
      outcome.source = netsim::FetchSource::Push;
      if (auto* rec = loop().recorder()) {
        rec->record(obs::Phase::kCacheLookup,
                    config_.processing.cache_hit_overhead);
      }
      deliver(start, config_.processing.cache_hit_overhead,
              std::move(outcome), std::move(on_done));
    }
    return;  // claimed; nothing left to park
  }
  pending_pushes_[key] = std::move(push.response);
}

http::Request Browser::build_request(
    const Url& url, bool is_navigation,
    const std::optional<Url>& referer) const {
  http::Request req = http::Request::get(url.path_and_query(), url.host);
  req.headers.set("Cookie",
                  server::make_session_cookie(config_.browser_id));
  if (!is_navigation && referer) {
    req.headers.set("Referer", referer->to_string());
  }
  req.headers.set("User-Agent", "catalyst-sim/1.0");

  // Cache digest (push-digest baseline): a bloom filter over this
  // origin's cached paths rides on the navigation request so the server
  // can skip pushing what we already hold.
  if (is_navigation && config_.send_cache_digest) {
    std::vector<std::string> paths;
    for (const std::string& stored : http_cache_.stored_urls()) {
      if (const auto parsed = Url::parse(stored);
          parsed && parsed->host == url.host) {
        paths.push_back(parsed->path);
      }
    }
    if (!paths.empty()) {
      BloomFilter digest =
          BloomFilter::for_entries(paths.size(), 0.01);
      for (const std::string& path : paths) digest.insert(path);
      req.headers.set("Cache-Digest", digest.serialize());
    }
  }
  return req;
}

void Browser::deliver(TimePoint start, Duration extra_delay,
                      FetchOutcome outcome,
                      std::function<void(FetchOutcome)> on_done) {
  outcome.start = start;
  loop().schedule_after(
      extra_delay,
      [this, outcome = std::move(outcome),
       on_done = std::move(on_done)]() mutable {
        outcome.finish = loop().now();
        on_done(std::move(outcome));
      });
}

void Browser::fetch(const Url& url, bool is_navigation,
                    const std::optional<Url>& referer,
                    std::function<void(FetchOutcome)> on_done) {
  const TimePoint start = loop().now();
  obs::count(obs::Sub::kClient);
  obs::ScopedTimer prof_timer(obs::Sub::kClient);
  Duration pipeline_delay = Duration::zero();

  // 1. Service Worker interception.
  const bool through_sw = sw_registered(url.host);
  bool force_revalidate = false;
  if (through_sw) {
    obs::count(obs::Sub::kSw);
    pipeline_delay += config_.processing.sw_interception_overhead;
    CatalystServiceWorker& sw = service_worker(url.host);
    if (is_navigation) {
      // The base HTML always goes to the origin (it carries the fresh
      // map); its no-cache headers already force revalidation, but the SW
      // never trusts a stale map's world view either.
      force_revalidate = true;
    } else {
      const auto intercept = sw.try_serve(url.path, loop().now());
      switch (intercept.decision) {
        case CatalystServiceWorker::Decision::ServeFromCache: {
          FetchOutcome outcome;
          outcome.response = *intercept.response;
          outcome.source = netsim::FetchSource::SwCache;
          if (audit_) {
            const auto etag = outcome.response.etag();
            outcome.stale = etag && !audit_(url, *etag);
          }
          if (auto* rec = loop().recorder()) {
            rec->record(obs::Phase::kSwDecision, pipeline_delay);
          }
          deliver(start, pipeline_delay, std::move(outcome),
                  std::move(on_done));
          return;
        }
        case CatalystServiceWorker::Decision::ForwardRevalidate:
          // Map-covered but changed: the HTTP cache's TTL must not serve
          // the stale copy.
          force_revalidate = true;
          if (intercept.fallback) {
            // Degradation fallback (untrusted map / integrity failure):
            // tag the outcome so the page load records it.
            on_done = [cb = std::move(on_done)](FetchOutcome outcome) mutable {
              outcome.sw_fallback = true;
              cb(std::move(outcome));
            };
          }
          break;
        case CatalystServiceWorker::Decision::ForwardDefault:
          // Uncovered: plain fetch() — status-quo cache semantics.
          break;
      }
    }
  }

  // 2–4. HTTP cache, push store, network.
  network_fetch(url, is_navigation, referer, force_revalidate, start,
                std::move(on_done));
}

void Browser::network_fetch(const Url& url, bool is_navigation,
                            const std::optional<Url>& referer,
                            bool force_revalidate, TimePoint start,
                            std::function<void(FetchOutcome)> on_done) {
  const std::string key = url.to_string();
  const cache::LookupResult lookup = http_cache_.lookup(key, loop().now());

  const bool have_entry = lookup.entry != nullptr;
  // mutate_serve_stale is the StaleServeStrategy oracle self-test: any
  // cached entry counts as fresh, skipping the revalidation RFC 9111
  // requires once the freshness lifetime has lapsed.
  bool fresh_hit = lookup.decision == cache::LookupDecision::FreshHit ||
                   (config_.mutate_serve_stale && have_entry);
  if (oracle_ && have_entry) {
    // Perfect validation knowledge, zero RTTs: the oracle's verdict
    // replaces the cache's freshness decision.
    const auto cached_etag = lookup.entry->etag();
    fresh_hit = cached_etag && oracle_(url, *cached_etag);
  }

  if (fresh_hit && !force_revalidate) {
    FetchOutcome outcome;
    outcome.response = lookup.entry->response;
    outcome.source = netsim::FetchSource::BrowserCache;
    if (audit_) {
      const auto etag = outcome.response.etag();
      // Entries without validators cannot be audited; count them as
      // suspect only when an ETag exists and mismatches.
      outcome.stale = etag && !audit_(url, *etag);
    }
    if (auto* rec = loop().recorder()) {
      rec->record(obs::Phase::kCacheLookup,
                  config_.processing.cache_hit_overhead);
    }
    deliver(start, config_.processing.cache_hit_overhead,
            std::move(outcome), std::move(on_done));
    return;
  }

  // Pushed resources: claim a completed push, or park the fetch on an
  // outstanding PUSH_PROMISE instead of requesting a duplicate.
  if (const auto it = pending_pushes_.find(key);
      it != pending_pushes_.end()) {
    FetchOutcome outcome;
    outcome.response = std::move(it->second);
    outcome.source = netsim::FetchSource::Push;
    pending_pushes_.erase(it);
    if (auto* rec = loop().recorder()) {
      rec->record(obs::Phase::kCacheLookup,
                  config_.processing.cache_hit_overhead);
    }
    deliver(start, config_.processing.cache_hit_overhead,
            std::move(outcome), std::move(on_done));
    return;
  }
  if (promised_.contains(key)) {
    promise_waiters_[key].emplace_back(start, std::move(on_done));
    return;
  }

  // A changed entry is fetched in full under the oracle: it knows a
  // conditional request would miss anyway.
  http::Request req = build_request(url, is_navigation, referer);
  const bool conditional = have_entry && !oracle_ &&
                           http::add_validators(req, lookup.entry->response);

  fetcher_.fetch(
      url.host, std::move(req),
      [this, key, url, is_navigation, start, conditional,
       on_done = std::move(on_done)](http::Response response) mutable {
        const TimePoint now = loop().now();
        FetchOutcome outcome;
        if (conditional &&
            response.status == http::Status::NotModified) {
          const cache::CacheEntry* refreshed =
              http_cache_.apply_not_modified(key, response, start, now);
          if (refreshed != nullptr) {
            outcome.response = refreshed->response;
            // Hand the map header through to the caller (a 304 on the
            // base HTML still carries a fresh X-Etag-Config).
            if (const auto map =
                    response.headers.get(http::kXEtagConfig)) {
              outcome.response.headers.set(http::kXEtagConfig, *map);
            }
            outcome.source = netsim::FetchSource::NotModified;
          } else {
            // Entry vanished (evicted mid-flight): degrade to the 304
            // itself; callers treat an empty body as a failed load.
            outcome.response = std::move(response);
            outcome.source = netsim::FetchSource::NotModified;
          }
        } else {
          http_cache_.store(key, response, start, now);
          if (sw_registered(url.host)) {
            service_worker(url.host).observe_response(url.path, response,
                                                      now);
          }
          outcome.response = std::move(response);
          outcome.source = netsim::FetchSource::Network;
        }
        deliver(start, Duration::zero(), std::move(outcome),
                std::move(on_done));
      });
}

void Browser::load_page(const Url& page_url,
                        std::function<void(PageLoadResult)> on_done) {
  if (current_loader_) {
    throw std::logic_error("Browser: concurrent page loads not supported");
  }
  current_loader_ = std::make_shared<PageLoader>(*this, page_url);
  current_loader_->start(
      [this, on_done = std::move(on_done)](PageLoadResult result) {
        current_loader_.reset();
        on_done(std::move(result));
      });
}

void Browser::end_visit() {
  fetcher_.close_all();
  pending_pushes_.clear();
  promised_.clear();
  promise_waiters_.clear();
}

}  // namespace catalyst::client
