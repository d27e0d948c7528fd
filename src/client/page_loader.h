// The dependency-resolution engine: parse HTML, discover subresources,
// fetch them with realistic blocking semantics, fire OnLoad.
//
// Modeled semantics (matching how Chrome loads the paper's Figure-1 page):
//   * After the base HTML arrives and parses, all statically declared
//     resources start fetching in parallel (preload-scanner behaviour).
//   * Scripts execute in document order, each after its bytes arrive and
//     all known stylesheets have arrived (CSS blocks execution).
//   * Script execution may trigger further fetches (`@fetch` directives):
//     fetched scripts execute on arrival and may recurse — the b.js →
//     c.js → d.jpg chain of Figure 1.
//   * Stylesheets parse on arrival and fetch their url()/@import
//     references.
//   * OnLoad fires when no fetch, parse or execution work remains.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/metrics.h"
#include "http/mime.h"
#include "util/url.h"

namespace catalyst::client {

class Browser;

class PageLoader : public std::enable_shared_from_this<PageLoader> {
 public:
  PageLoader(Browser& browser, Url page_url);

  /// Begins the load; `on_done` fires at OnLoad (post-onload SW
  /// registration continues afterwards, outside the measured window).
  void start(std::function<void(PageLoadResult)> on_done);

  /// 103 Early Hints arrived for `origin_host`: start preloading the
  /// hinted URLs. Later document discoveries of the same URLs consume the
  /// preloaded bytes instead of refetching.
  void on_preload_hints(const std::string& origin_host,
                        const std::vector<std::string>& urls);

 private:
  struct ScriptSlot {
    Url url;
    bool arrived = false;
    bool executed = false;
    // Set on arrival: the script's `@fetch` scan (html/scan.h) and size.
    const std::vector<std::string>* fetches = nullptr;
    std::size_t bytes = 0;
  };

  void begin_task() { ++active_; }
  void end_task();

  /// Deduplicating fetch wrapper; updates metrics and the trace.
  /// Returns false when the URL was already requested this load.
  bool fetch_subresource(const Url& url, http::ResourceClass rc,
                         std::function<void(const FetchOutcome&)> then);

  void on_html(const FetchOutcome& outcome);
  void handle_discovered(const std::string& raw_url,
                         http::ResourceClass rc, bool ordered_script);
  /// Fetches `url` and acts on it by class: a stylesheet parses on
  /// arrival (and holds first paint and scripts until then), a script
  /// runs on arrival, anything else is only recorded.
  void fetch_by_class(const Url& url, http::ResourceClass rc);
  void handle_css_arrival(const Url& url, const http::Response& stylesheet);
  void handle_dynamic_fetch(const Url& base, const std::string& raw_url);
  void try_execute_scripts();
  /// Runs a script of `bytes` bytes whose `@fetch` directives are
  /// `fetches` (a scan memo entry, so the reference outlives the load).
  void execute_script_content(const Url& url,
                              const std::vector<std::string>& fetches,
                              std::size_t bytes);
  /// Marks first paint once the HTML is parsed and no render-blocking
  /// stylesheet remains outstanding.
  void maybe_mark_first_paint();
  void record(const Url& url, http::ResourceClass rc,
              const FetchOutcome& outcome);
  void finish();
  void post_onload_sw_registration();

  Browser& browser_;
  Url page_url_;
  std::function<void(PageLoadResult)> on_done_;
  PageLoadResult result_;

  int active_ = 0;
  bool finished_ = false;
  std::set<std::string> requested_;
  std::vector<ScriptSlot> ordered_scripts_;
  std::size_t next_script_ = 0;
  int pending_css_ = 0;
  bool executing_ = false;  // re-entrancy guard for try_execute_scripts
  bool parse_done_ = false;
  bool first_paint_marked_ = false;
  TimePoint last_script_end_{};

  // Observed 200 responses by path — seeds the SW cache at registration.
  std::map<std::string, http::Response> observed_;
  bool saw_etag_config_ = false;

  // Early-Hints preload state: URLs being preloaded, completed preloads
  // awaiting their document discovery, and discoveries waiting on an
  // in-flight preload.
  std::set<std::string> preload_requested_;
  std::map<std::string, FetchOutcome> preloaded_;
  std::map<std::string,
           std::vector<std::function<void(const FetchOutcome&)>>>
      preload_waiters_;
};

}  // namespace catalyst::client
