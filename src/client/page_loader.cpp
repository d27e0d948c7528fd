#include "client/page_loader.h"

#include <algorithm>

#include "client/browser.h"
#include "html/scan.h"
#include "obs/recorder.h"
#include "server/catalyst_module.h"

namespace catalyst::client {

namespace {

/// The `@fetch` directives of a script response, from the scan memo.
const std::vector<std::string>& js_fetches(const http::Response& script) {
  return html::scan_js(script.body.str(), script.body.digest());
}

}  // namespace

PageLoader::PageLoader(Browser& browser, Url page_url)
    : browser_(browser), page_url_(std::move(page_url)) {}

void PageLoader::start(std::function<void(PageLoadResult)> on_done) {
  on_done_ = std::move(on_done);
  result_.start = browser_.loop().now();
  begin_task();
  requested_.insert(page_url_.to_string());
  auto self = shared_from_this();
  browser_.fetch(page_url_, /*is_navigation=*/true, std::nullopt,
                 [self](FetchOutcome outcome) {
                   self->on_html(outcome);
                   self->end_task();
                 });
}

void PageLoader::record(const Url& url, http::ResourceClass rc,
                        const FetchOutcome& outcome) {
  ++result_.resources_total;
  result_.counters.add(outcome.source);
  const netsim::ServeClass verdict = browser_.classify_serve(url, outcome);
  result_.oracle.add(verdict);
  netsim::FetchTrace& trace = result_.trace.append();
  url.append_path_and_query(trace.url);
  trace.resource_class = rc;
  trace.start = outcome.start;
  trace.finish = outcome.finish;
  trace.source = outcome.source;
  trace.bytes_down =
      (outcome.source == netsim::FetchSource::Network ||
       outcome.source == netsim::FetchSource::Push)
          ? outcome.response.wire_size()
          : (outcome.source == netsim::FetchSource::NotModified
                 ? outcome.response.headers.wire_size() + 19
                 : 0);
  trace.status = http::code(outcome.response.status);
  trace.body_digest = outcome.response.body.digest();
  trace.oracle_class = verdict;
  if (outcome.stale) ++result_.counters.stale_served;
  if (outcome.sw_fallback) ++result_.faults.fallback_revalidations;
  if (trace.status >= 500) ++result_.faults.failed_loads;
  // Negative-cache hit: an error answered from a client-side cache (the
  // only way a 404/410 arrives with a cache source).
  if ((outcome.response.status == http::Status::NotFound ||
       outcome.response.status == http::Status::Gone) &&
      (outcome.source == netsim::FetchSource::BrowserCache ||
       outcome.source == netsim::FetchSource::SwCache)) {
    ++result_.negative_hits;
  }
  // This load's responses seed the Service Worker's install-time precache
  // (post_onload_sw_registration). Copy them only when registration can
  // still happen — SW support on and no worker yet — which skips the
  // per-resource Response copy on baseline runs and on every revisit
  // after the worker registered, i.e. the vast majority of fetches.
  if (outcome.response.status == http::Status::Ok &&
      browser_.config().service_workers_enabled &&
      !browser_.sw_registered(page_url_.host)) {
    observed_.emplace(url.path, outcome.response);
  }
}

void PageLoader::on_html(const FetchOutcome& outcome) {
  record(page_url_, http::ResourceClass::Html, outcome);
  saw_etag_config_ =
      outcome.response.headers.contains(http::kXEtagConfig);

  // A registered Service Worker ingests the fresh ETag map (200 or 304).
  if (browser_.sw_registered(page_url_.host)) {
    browser_.service_worker(page_url_.host)
        .install_map_from(outcome.response);
  }

  if (outcome.response.status != http::Status::Ok) {
    return;  // navigation failed; onload fires with what we have
  }

  const http::Response& page = outcome.response;
  const html::PageScan* scan =
      &html::scan_page(page.body.str(), page.body.digest());
  begin_task();
  auto self = shared_from_this();
  browser_.loop().schedule_after(
      browser_.processing().html_parse_cost(page.body.size()), [self, scan] {
        for (const html::DiscoveredResource& dr : scan->resources) {
          const bool ordered_script =
              dr.resource_class == http::ResourceClass::Script &&
              dr.parser_blocking;
          self->handle_discovered(dr.url, dr.resource_class,
                                  ordered_script);
        }
        // Inline scripts can also carry @fetch directives.
        for (const std::string& raw : scan->inline_fetches) {
          self->handle_dynamic_fetch(self->page_url_, raw);
        }
        self->parse_done_ = true;
        self->maybe_mark_first_paint();
        self->try_execute_scripts();
        self->end_task();
      });
}

void PageLoader::maybe_mark_first_paint() {
  if (first_paint_marked_ || !parse_done_ || pending_css_ > 0) return;
  first_paint_marked_ = true;
  result_.first_paint = browser_.loop().now();
}

void PageLoader::on_preload_hints(const std::string& origin_host,
                                  const std::vector<std::string>& urls) {
  auto self = shared_from_this();
  for (const std::string& raw : urls) {
    const auto parsed = Url::parse(raw);
    if (!parsed) continue;
    Url url = page_url_.resolve(*parsed);
    if (url.host != origin_host) continue;  // hints are same-origin
    const std::string key = url.to_string();
    if (requested_.contains(key)) continue;  // already fetched normally
    if (!preload_requested_.insert(key).second) continue;
    begin_task();
    browser_.fetch(url, /*is_navigation=*/false, page_url_,
                   [self, key](FetchOutcome outcome) {
                     auto waiters =
                         std::move(self->preload_waiters_[key]);
                     self->preload_waiters_.erase(key);
                     if (waiters.empty()) {
                       self->preloaded_.emplace(key, std::move(outcome));
                     } else {
                       for (auto& waiter : waiters) waiter(outcome);
                     }
                     self->end_task();
                   });
  }
}

bool PageLoader::fetch_subresource(
    const Url& url, http::ResourceClass rc,
    std::function<void(const FetchOutcome&)> then) {
  const std::string key = url.to_string();
  if (!requested_.insert(key).second) return false;  // dedup
  begin_task();
  auto self = shared_from_this();
  auto deliver = [self, url, rc, then = std::move(then)](
                     FetchOutcome outcome) {
    self->record(url, rc, outcome);
    if (then) then(outcome);
    self->end_task();
  };

  // A completed preload satisfies the discovery instantly.
  if (const auto it = preloaded_.find(key); it != preloaded_.end()) {
    FetchOutcome outcome = std::move(it->second);
    preloaded_.erase(it);
    outcome.start = browser_.loop().now();
    if (auto* rec = browser_.loop().recorder()) {
      rec->record(obs::Phase::kCacheLookup,
                  browser_.processing().cache_hit_overhead);
    }
    browser_.loop().schedule_after(
        browser_.processing().cache_hit_overhead,
        [deliver = std::move(deliver), outcome = std::move(outcome),
         self]() mutable {
          outcome.finish = self->browser_.loop().now();
          deliver(std::move(outcome));
        });
    return true;
  }
  // An in-flight preload: join it rather than double-fetching.
  if (preload_requested_.contains(key)) {
    const TimePoint needed_at = browser_.loop().now();
    preload_waiters_[key].push_back(
        [deliver = std::move(deliver), needed_at, self](
            const FetchOutcome& ready) {
          FetchOutcome outcome = ready;
          outcome.start = needed_at;
          outcome.finish = self->browser_.loop().now();
          deliver(std::move(outcome));
        });
    return true;
  }

  browser_.fetch(url, /*is_navigation=*/false, page_url_,
                 std::move(deliver));
  return true;
}

void PageLoader::handle_discovered(const std::string& raw_url,
                                   http::ResourceClass rc,
                                   bool ordered_script) {
  const auto ref = Url::parse(raw_url);
  if (!ref) return;
  const Url url = page_url_.resolve(*ref);
  if (!ordered_script) {
    fetch_by_class(url, rc);
    return;
  }
  ordered_scripts_.push_back(ScriptSlot{url});
  const std::size_t index = ordered_scripts_.size() - 1;
  auto self = shared_from_this();
  fetch_subresource(url, rc, [self, index](const FetchOutcome& outcome) {
    ScriptSlot& slot = self->ordered_scripts_[index];
    slot.arrived = true;
    slot.fetches = &js_fetches(outcome.response);
    slot.bytes = outcome.response.body.size();
    self->try_execute_scripts();
  });
}

void PageLoader::fetch_by_class(const Url& url, http::ResourceClass rc) {
  auto self = shared_from_this();
  if (rc == http::ResourceClass::Css) {
    if (fetch_subresource(url, rc,
                          [self, url](const FetchOutcome& outcome) {
                            self->handle_css_arrival(url, outcome.response);
                          })) {
      ++pending_css_;
    }
  } else if (rc == http::ResourceClass::Script) {
    // async/defer-like: execute on arrival, out of order.
    fetch_subresource(url, rc, [self, url](const FetchOutcome& outcome) {
      self->execute_script_content(url, js_fetches(outcome.response),
                                   outcome.response.body.size());
    });
  } else {
    fetch_subresource(url, rc, nullptr);
  }
}

void PageLoader::handle_css_arrival(const Url& url,
                                    const http::Response& stylesheet) {
  const std::vector<html::CssReference>* refs =
      &html::scan_css(stylesheet.body.str(), stylesheet.body.digest());
  begin_task();
  auto self = shared_from_this();
  browser_.loop().schedule_after(
      browser_.processing().css_parse_cost(stylesheet.body.size()),
      [self, url, refs] {
        for (const html::CssReference& ref : *refs) {
          const auto parsed = Url::parse(ref.url);
          if (!parsed) continue;
          const Url sub = url.resolve(*parsed);
          if (ref.is_import) {
            self->fetch_by_class(sub, http::ResourceClass::Css);
          } else {
            self->fetch_subresource(sub,
                                    http::classify_path(sub.path),
                                    nullptr);
          }
        }
        --self->pending_css_;
        self->maybe_mark_first_paint();
        self->try_execute_scripts();
        self->end_task();
      });
}

void PageLoader::handle_dynamic_fetch(const Url& base,
                                      const std::string& raw_url) {
  const auto parsed = Url::parse(raw_url);
  if (!parsed) return;
  const Url url = base.resolve(*parsed);
  fetch_by_class(url, http::classify_path(url.path));
}

void PageLoader::try_execute_scripts() {
  if (executing_) return;
  executing_ = true;
  while (next_script_ < ordered_scripts_.size() &&
         ordered_scripts_[next_script_].arrived && pending_css_ == 0) {
    ScriptSlot& slot = ordered_scripts_[next_script_];
    ++next_script_;
    slot.executed = true;
    execute_script_content(slot.url, *slot.fetches, slot.bytes);
  }
  executing_ = false;
}

void PageLoader::execute_script_content(
    const Url& url, const std::vector<std::string>& fetches,
    std::size_t bytes) {
  begin_task();
  auto self = shared_from_this();
  browser_.loop().schedule_after(
      browser_.processing().js_exec_cost(bytes),
      [self, url, fetches = &fetches] {
        for (const std::string& raw : *fetches) {
          self->handle_dynamic_fetch(url, raw);
        }
        self->last_script_end_ = self->browser_.loop().now();
        // This script may have been the barrier for the next ordered one.
        self->try_execute_scripts();
        self->end_task();
      });
}

void PageLoader::end_task() {
  --active_;
  if (active_ == 0 && !finished_) finish();
}

void PageLoader::finish() {
  finished_ = true;
  result_.onload = browser_.loop().now();
  if (!first_paint_marked_) result_.first_paint = result_.onload;
  result_.interactive =
      std::max({result_.first_paint, last_script_end_, result_.start});
  result_.rtts =
      static_cast<std::uint32_t>(browser_.fetcher().total_rtts());
  result_.bytes_downloaded = browser_.fetcher().total_bytes_received();
  result_.faults.merge(browser_.fetcher().faults());

  post_onload_sw_registration();

  // Deliver via the loop so the loader can be torn down safely.
  auto self = shared_from_this();
  browser_.loop().schedule_after(Duration::zero(), [self] {
    if (self->on_done_) {
      auto cb = std::move(self->on_done_);
      cb(std::move(self->result_));
    }
  });
}

void PageLoader::post_onload_sw_registration() {
  // The injected snippet registers the Service Worker after onload: fetch
  // the SW script, then seed the SW cache from this load's responses
  // (install-time precache out of browser memory).
  if (!saw_etag_config_ ||
      !browser_.config().service_workers_enabled ||
      browser_.sw_registered(page_url_.host)) {
    return;
  }
  Url sw_url = page_url_;
  sw_url.path = server::CatalystModule::kSwPath;
  sw_url.query.clear();
  auto self = shared_from_this();
  browser_.fetch(sw_url, /*is_navigation=*/false, page_url_,
                 [self](FetchOutcome outcome) {
                   if (outcome.response.status != http::Status::Ok) return;
                   self->browser_.register_service_worker(
                       self->page_url_.host, std::move(self->observed_));
                 });
}

}  // namespace catalyst::client
