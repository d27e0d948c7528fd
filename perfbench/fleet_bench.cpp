// fleet_bench — one process of the fleet replay benchmark (run.py drives
// it; each invocation is a fresh process so peak RSS, set-up time and the
// thread-local intern tables belong to exactly one workload).
//
//   fleet_bench --workload private|edge|churn --seed S [--users N]
//               [--setup-only | --traced [--spans FILE]]
//
// Builds fleet::FleetParams for the workload from the seed and runs
// fleet::FleetRunner::run(), the path fleetsim takes. Prints one JSON line.
//
// Untraced (default): wall time, process CPU, peak RSS and the report
// facts run.py checks (digest, PLT reduction, oracle and edge tallies).
// --setup-only stops where run() would begin, for set-up time samples.
//
// --traced: the untraced replay, then the same fleet replayed with one
// thread and the self-profile timers on (both serialized reports are
// printed so run.py can require byte identity), then probes that time
// each layer's public functions on inputs taken from the workload: its
// generated sites, its users' profiles and visit times, and the URL
// stream their page loads produced. Spans around both replays, each probe
// and each individually timed call stay in memory and are written to
// --spans FILE at exit.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cache/http_cache.h"
#include "core/experiment.h"
#include "edge/pop.h"
#include "fleet/runner.h"
#include "html/css.h"
#include "html/link_extract.h"
#include "html/parser.h"
#include "http/cache_control.h"
#include "http/etag.h"
#include "http/etag_config.h"
#include "obs/selfprof.h"
#include "server/static_handler.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/distributions.h"
#include "workload/sitegen.h"

using namespace catalyst;

namespace {

// ---------------------------------------------------------------- clocks

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

std::size_t heap_in_use() { return mallinfo2().uordblks; }

Json num(double v) { return Json::number(v); }

// ---------------------------------------------------------------- workloads

struct Workload {
  std::uint64_t users = 0;
  int threads = 1;
  fleet::FleetParams params;
};

/// The three workloads. Each is a fleetsim configuration; the seed draws
/// the user population and the fault schedule. The site catalog is the
/// fixed corpus (fleetsim's default catalog seed), as the paper replays one
/// fixed set of cloned homepages.
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  Workload w;
  fleet::FleetParams& p = w.params;  // fleetsim defaults otherwise
  p.user_model.master_seed = seed;
  p.user_model.sitegen_seed = 2024;
  p.faults.fault_seed = seed;
  if (name == "private") {
    // The paper's measurement: per-user browser caches, no shared state.
    w.users = 400;
    w.threads = 1;
  } else if (name == "edge") {
    // fleetsim --edge-pops 8 --loss 0.01 --threads 2
    w.users = 480;
    w.threads = 2;
    p.edge.pops = 8;
    p.faults.loss_rate = 0.01;
    p.faults.stall_rate = 0.01 / 4.0;
  } else if (name == "churn") {
    // fleetsim --edge-pops 4 --edge-capacity-mb 4 --edge-flash-mb 8
    //   --sites 200 --dead-links 0.1 --negative-ttl-s 600 --oracle
    w.users = 240;
    w.threads = 1;
    p.edge.pops = 4;
    p.edge.capacity = MiB(4);
    p.edge.flash_capacity = MiB(8);
    p.user_model.site_catalog_size = 200;
    p.user_model.dead_link_fraction = 0.1;
    p.user_model.gone_link_fraction = 0.1 / 2.0;
    p.user_model.soft404_fraction = 0.1 / 4.0;
    cache::NegativePolicy negative;
    negative.enabled = true;
    negative.default_ttl = seconds(600);
    negative.max_ttl = std::max(negative.max_ttl, negative.default_ttl);
    p.options.negative_cache = negative;
    p.edge.negative = negative;
    p.options.byte_oracle = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------- spans

/// In-memory span log: one span per probe, and one per individually timed
/// probe call with the user and visit whose input it used as request id.
class Spans {
 public:
  void open(std::string name, std::string request) {
    const std::size_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(Span{spans_.size() + 1, parent, std::move(name),
                          std::move(request), mono_ns(), 0});
    stack_.push_back(spans_.size());
  }
  void close() {
    spans_[stack_.back() - 1].end_ns = mono_ns();
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      Json line = Json::object();
      line.set("id", num(static_cast<double>(s.id)));
      line.set("parent", num(static_cast<double>(s.parent)));
      line.set("name", Json::string(s.name));
      line.set("req", Json::string(s.request));
      line.set("start_ns", num(static_cast<double>(s.start_ns)));
      line.set("end_ns", num(static_cast<double>(s.end_ns)));
      std::fprintf(f, "%s\n", line.dump().c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::size_t id;
    std::size_t parent;  // 0: root
    std::string name;
    std::string request;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, std::string name, std::string request = {})
      : spans_(spans) {
    spans_.open(std::move(name), std::move(request));
  }
  ~SpanScope() { spans_.close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
};

std::string request_id(std::uint64_t user, std::uint32_t visit) {
  return str_format("u%llu/v%u", static_cast<unsigned long long>(user),
                    visit);
}

/// Keeps a probe's result observable so the timed calls are not elided.
void keep(std::size_t value) {
  [[maybe_unused]] static volatile std::size_t sink;
  sink = value;
}

/// Times `pass`, which returns a value derived from the calls it makes:
/// one untimed warm-up, then repeats until 20 ms (and at least three
/// passes) are measured. Returns ns per pass.
template <typename Pass>
double time_passes(Spans& spans, const char* name, Pass pass) {
  SpanScope span(spans, name);
  std::size_t sink = pass();
  std::uint64_t elapsed = 0;
  int passes = 0;
  while (elapsed < 20'000'000 || passes < 3) {
    const std::uint64_t t0 = mono_ns();
    sink += pass();
    elapsed += mono_ns() - t0;
    ++passes;
  }
  keep(sink);
  return static_cast<double>(elapsed) / passes;
}

// ---------------------------------------------------------------- replay

struct Replay {
  fleet::FleetReport report;
  std::string serialized;
  std::size_t shards = 0;
  std::uint64_t start_ns = 0;  // CLOCK_MONOTONIC when run() began
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Replay replay(const fleet::FleetParams& params, std::uint64_t users,
              int threads, Spans& spans) {
  fleet::FleetRunner runner(params, users, threads);
  Replay r;
  r.shards = runner.shard_count();
  const double cpu0 = process_cpu_s();
  r.start_ns = mono_ns();
  {
    SpanScope span(spans, "fleet::FleetRunner::run",
                   str_format("threads=%d%s", threads,
                              obs::timing_enabled() ? ",timed" : ""));
    r.report = runner.run();
  }
  r.wall_s = static_cast<double>(mono_ns() - r.start_ns) / 1e9;
  r.cpu_s = process_cpu_s() - cpu0;
  r.serialized = r.report.serialize();
  return r;
}

/// What run.py checks about one report: its digest, the mean PLT
/// reduction, oracle verdicts and per-PoP edge accounting.
Json report_facts(const Replay& r, const fleet::FleetParams& params) {
  Json facts = Json::object();
  facts.set("digest", Json::string(str_format(
                          "%016llx", static_cast<unsigned long long>(
                                         fnv1a64(r.serialized)))));
  facts.set("users", num(static_cast<double>(r.report.users)));
  facts.set("visits", num(static_cast<double>(r.report.visits)));
  // A fleet whose users all visited once has no revisit to compare.
  const Summary& reduction = r.report.plt_reduction_pct;
  facts.set("revisits", num(static_cast<double>(reduction.count())));
  facts.set("plt_reduction_mean_pct",
            num(reduction.empty() ? 0.0 : reduction.mean()));
  facts.set("plt_reduction_p50_pct",
            num(reduction.empty() ? 0.0 : reduction.median()));
  facts.set("oracle", Json::boolean(params.options.byte_oracle));
  facts.set("oracle_violations",
            num(static_cast<double>(r.report.oracle.violations)));
  facts.set("faults", Json::boolean(params.faults.any()));
  Json pops = Json::array();
  for (const auto& [pop, e] : r.report.edge_pops) {
    Json entry = Json::object();
    entry.set("pop", num(pop));
    entry.set("requests", num(static_cast<double>(e.requests)));
    entry.set("resolved", num(static_cast<double>(e.hits + e.flash_hits +
                                                  e.revalidated_hits +
                                                  e.misses)));
    pops.push_back(std::move(entry));
  }
  facts.set("edge_pops", std::move(pops));
  return facts;
}

// ---------------------------------------------------------------- probes

/// One fetch of the workload's recorded URL stream.
struct Fetch {
  std::uint64_t user = 0;
  std::uint32_t visit = 0;
  std::string path;
  TimePoint at{};
  const server::Site* site = nullptr;
  const server::Resource* resource = nullptr;  // nullptr: dead link
  std::string url;                             // host + path
  http::Response response;                     // the origin's answer
};

/// Fetch records of the traced users, in replay order (check/replay JSONL:
/// page lines carry "page", fetch lines carry "url").
std::vector<Fetch> url_stream(const fleet::FleetReport& report) {
  std::vector<Fetch> out;
  const std::string jsonl = report.traces_jsonl();
  for (const std::string_view line : split(jsonl, '\n')) {
    const auto j = Json::parse(line);
    if (!j || !j->is_object()) continue;
    const Json* url = j->find("url");
    if (url == nullptr) continue;
    Fetch f;
    f.user = static_cast<std::uint64_t>(j->find("u")->as_number());
    f.visit = static_cast<std::uint32_t>(j->find("v")->as_number());
    f.path = url->as_string();
    f.at = TimePoint{Duration{
        static_cast<std::int64_t>(j->find("t0")->as_number())}};
    out.push_back(std::move(f));
  }
  return out;
}

std::shared_ptr<server::Site> generate_catalog_site(
    const fleet::UserModelParams& um, int site_index) {
  workload::SitegenParams sp;
  sp.seed = um.sitegen_seed;
  sp.site_index = site_index;
  sp.clone_static_snapshot = um.clone_static_snapshot;
  sp.errors.dead_link_fraction = um.dead_link_fraction;
  sp.errors.gone_link_fraction = um.gone_link_fraction;
  sp.errors.soft404_fraction = um.soft404_fraction;
  return workload::generate_site(sp);
}

edge::EdgeConfig edge_config(const fleet::FleetParams& params) {
  edge::EdgeConfig ec;
  ec.capacity = params.edge.capacity;
  ec.tinylfu_admission = params.edge.admission;
  ec.negative = params.edge.negative;
  if (params.edge.flash_enabled()) {
    ec.flash.capacity = params.edge.flash_capacity;
    ec.flash.device.read_latency = params.edge.flash_read_latency;
    ec.flash.device.queue_depth = params.edge.flash_queue_depth;
    ec.flash.seed = params.user_model.master_seed;
  }
  return ec;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr std::uint64_t kTracedUsers = 24;  // users whose URL stream is kept
constexpr std::uint64_t kCoreUsers = 32;    // users replayed by core probes

/// Times each layer's public functions on the workload's own inputs and
/// sets the resulting per-layer metrics on `out`.
void run_probes(const Workload& w, const fleet::FleetReport& traced,
                Spans& spans, Json& out) {
  const fleet::FleetParams& params = w.params;
  const auto set = [&out](const char* name, double v) {
    out.set(name, Json::number(v));
  };

  // workload: user profiles, site generation, the Zipf site draw.
  std::vector<fleet::UserProfile> profiles;
  std::map<int, std::shared_ptr<server::Site>> sites;
  {
    SpanScope group(spans, "workload");
    std::uint64_t t0 = mono_ns();
    for (std::uint64_t u = 0; u < w.users; ++u) {
      profiles.push_back(fleet::make_user_profile(params.user_model, u));
    }
    set("workload.profile_us",
        ratio(static_cast<double>(mono_ns() - t0) / 1e3,
              static_cast<double>(w.users)));
    for (const auto& p : profiles) sites[p.site_index] = nullptr;
    t0 = mono_ns();
    for (auto& [index, site] : sites) {
      SpanScope span(spans, "workload.generate_site",
                     str_format("site%d", index));
      site = generate_catalog_site(params.user_model, index);
    }
    set("workload.sitegen_ms",
        ratio(static_cast<double>(mono_ns() - t0) / 1e6,
              static_cast<double>(sites.size())));
    Rng rng(params.user_model.master_seed);
    const auto n =
        static_cast<std::size_t>(params.user_model.site_catalog_size);
    constexpr int kDraws = 10000;
    set("workload.zipf_draw_ns",
        time_passes(spans, "workload.draw_zipf_rank", [&] {
          std::size_t sum = 0;
          for (int i = 0; i < kDraws; ++i) {
            sum += workload::draw_zipf_rank(
                n, params.user_model.zipf_exponent, rng);
          }
          return sum;
        }) / kDraws);
  }

  // The traced users' URL stream, resolved against the fresh sites above:
  // nothing is materialized yet.
  std::vector<Fetch> stream = url_stream(traced);
  std::vector<const Fetch*> served;  // fetches of paths the site has
  for (Fetch& f : stream) {
    f.site = sites.at(profiles.at(f.user).site_index).get();
    f.resource = f.site->find(f.path);
    f.url = f.site->host() + f.path;
    if (f.resource) served.push_back(&f);
  }

  // server: version materialization (the first content_at of a version),
  // memoized content hits, entity-tag derivation.
  struct Body {
    const Fetch* fetch;
    const std::string* content;
  };
  std::vector<Body> bodies;  // one per distinct materialized version
  {
    SpanScope group(spans, "server");
    std::set<std::pair<const server::Resource*, std::uint64_t>> seen;
    std::uint64_t materialize_ns = 0;
    double bytes = 0.0;
    for (const Fetch* f : served) {
      if (!seen.emplace(f->resource, f->resource->version_at(f->at)).second) {
        continue;
      }
      SpanScope span(spans, "server.Resource::content_at",
                     request_id(f->user, f->visit));
      const std::uint64_t t0 = mono_ns();
      const std::string& content = f->resource->content_at(f->at);
      materialize_ns += mono_ns() - t0;
      bytes += static_cast<double>(content.size());
      bodies.push_back(Body{f, &content});
    }
    const auto versions = static_cast<double>(bodies.size());
    set("server.versions", versions);
    set("server.catalog_mb", bytes / (1024.0 * 1024.0));
    set("server.materialize_us",
        ratio(static_cast<double>(materialize_ns) / 1e3, versions));
    set("server.content_hit_ns",
        ratio(time_passes(spans, "server.Resource::content_at(memo)", [&] {
                std::size_t sum = 0;
                for (const Fetch* f : served) {
                  sum += f->resource->content_at(f->at).size();
                }
                return sum;
              }),
              static_cast<double>(served.size())));
    set("server.etag_us",
        ratio(time_passes(spans, "http::make_content_etag", [&] {
                std::size_t sum = 0;
                for (const Body& b : bodies) {
                  sum += http::make_content_etag(*b.content).value.size();
                }
                return sum;
              }) / 1e3,
              versions));
  }

  // html: DOM parse and resource extraction, CSS and JS reference scans,
  // per class of materialized body.
  {
    SpanScope group(spans, "html");
    std::map<http::ResourceClass, std::vector<const std::string*>> by_class;
    std::map<http::ResourceClass, double> kib;
    for (const Body& b : bodies) {
      const http::ResourceClass cls = b.fetch->resource->resource_class();
      by_class[cls].push_back(b.content);
      kib[cls] += static_cast<double>(b.content->size()) / 1024.0;
    }
    const auto& html = by_class[http::ResourceClass::Html];
    std::vector<std::unique_ptr<html::Node>> docs;
    set("html.parse_us_per_kib",
        ratio(time_passes(spans, "html::parse", [&] {
                docs.clear();
                for (const std::string* body : html) {
                  docs.push_back(html::parse(*body));
                }
                return docs.size();
              }) / 1e3,
              kib[http::ResourceClass::Html]));
    set("html.extract_us",
        ratio(time_passes(spans, "html::extract_resources", [&] {
                std::size_t sum = 0;
                for (const auto& doc : docs) {
                  sum += html::extract_resources(*doc).size();
                }
                return sum;
              }) / 1e3,
              static_cast<double>(docs.size())));
    set("html.css_scan_us_per_kib",
        ratio(time_passes(spans, "html::extract_css_references", [&] {
                std::size_t sum = 0;
                for (const std::string* body :
                     by_class[http::ResourceClass::Css]) {
                  sum += html::extract_css_references(*body).size();
                }
                return sum;
              }) / 1e3,
              kib[http::ResourceClass::Css]));
    set("html.js_scan_us_per_kib",
        ratio(time_passes(spans, "html::extract_js_fetches", [&] {
                std::size_t sum = 0;
                for (const std::string* body :
                     by_class[http::ResourceClass::Script]) {
                  sum += html::extract_js_fetches(*body).size();
                }
                return sum;
              }) / 1e3,
              kib[http::ResourceClass::Script]));
  }

  // http: header work on the origin's answers to the stream
  // (StaticHandler::handle) and on each page load's X-Etag-Config map.
  {
    SpanScope group(spans, "http");
    std::map<const server::Site*, std::unique_ptr<server::StaticHandler>>
        handlers;
    for (Fetch& f : stream) {
      auto& handler = handlers[f.site];
      if (!handler) handler = std::make_unique<server::StaticHandler>(*f.site);
      f.response =
          handler->handle(http::Request::get(f.path, f.site->host()), f.at);
    }
    std::vector<std::string> policies;
    for (const Fetch* f : served) {
      policies.push_back(f->resource->cache_policy().to_string());
    }
    set("http.cache_control_parse_ns",
        ratio(time_passes(spans, "http::CacheControl::parse", [&] {
                std::size_t sum = 0;
                for (const std::string& text : policies) {
                  sum += http::CacheControl::parse(text).no_cache;
                }
                return sum;
              }),
              static_cast<double>(policies.size())));

    // One map per page load: the entity tags of everything it fetched.
    std::map<std::pair<std::uint64_t, std::uint32_t>, http::EtagConfig> maps;
    for (const Fetch* f : served) {
      maps[{f->user, f->visit}].add(f->path, f->resource->etag_at(f->at));
    }
    std::vector<std::string> encoded;
    set("http.etag_config_encode_us",
        ratio(time_passes(spans, "http::EtagConfig::encode", [&] {
                encoded.clear();
                for (const auto& [visit, map] : maps) {
                  encoded.push_back(map.encode());
                }
                return encoded.size();
              }) / 1e3,
              static_cast<double>(maps.size())));
    set("http.etag_config_parse_us",
        ratio(time_passes(spans, "http::EtagConfig::parse", [&] {
                std::size_t sum = 0;
                for (const std::string& e : encoded) {
                  sum += http::EtagConfig::parse(e)->size();
                }
                return sum;
              }) / 1e3,
              static_cast<double>(encoded.size())));

    constexpr std::string_view kNames[] = {
        http::kCacheControl, http::kEtagHeader, http::kLastModified,
        http::kContentType};
    set("http.header_get_ns",
        ratio(time_passes(spans, "http::Headers::get", [&] {
                std::size_t sum = 0;
                for (const Fetch& f : stream) {
                  for (const std::string_view name : kNames) {
                    sum += f.response.headers.get(name).has_value();
                  }
                }
                return sum;
              }),
              4.0 * static_cast<double>(stream.size())));
  }

  // Feeds the stream to a cache in order: `lookup` decides whether the
  // fetch needs a store, and `store` calls are timed one by one.
  const auto time_stores = [&](const char* name, auto&& lookup,
                               auto&& store) {
    std::uint64_t ns = 0;
    std::size_t stores = 0;
    for (Fetch& f : stream) {
      if (!lookup(f)) continue;
      http::Response copy = f.response;
      SpanScope span(spans, name, request_id(f.user, f.visit));
      const std::uint64_t t0 = mono_ns();
      store(f, std::move(copy));
      ns += mono_ns() - t0;
      ++stores;
    }
    return ratio(static_cast<double>(ns) / 1e3, static_cast<double>(stores));
  };

  // cache: each traced user's browser HTTP cache, then lookups against
  // the filled caches.
  {
    SpanScope group(spans, "cache");
    std::map<std::uint64_t, cache::HttpCache> caches;
    for (const Fetch& f : stream) {
      caches.try_emplace(f.user, MiB(256), true,
                         params.options.negative_cache);
    }
    set("cache.store_us",
        time_stores(
            "cache::HttpCache::store",
            [&](const Fetch& f) {
              return caches.at(f.user).lookup(f.url, f.at).decision !=
                     cache::LookupDecision::FreshHit;
            },
            [&](const Fetch& f, http::Response r) {
              caches.at(f.user).store(f.url, std::move(r), f.at, f.at);
            }));
    set("cache.lookup_ns",
        ratio(time_passes(spans, "cache::HttpCache::lookup", [&] {
                std::size_t sum = 0;
                for (const Fetch& f : stream) {
                  sum += static_cast<std::size_t>(
                      caches.at(f.user).lookup(f.url, f.at).decision);
                }
                return sum;
              }),
              static_cast<double>(stream.size())));
  }

  // edge: one RAM PoP shared by the traced users, fed like EdgeNode feeds
  // it (note_request, lookup, admit_and_store on a miss).
  {
    SpanScope group(spans, "edge");
    edge::EdgePop pop(edge_config(params));
    set("edge.store_us",
        time_stores(
            "edge::EdgePop::admit_and_store",
            [&](const Fetch& f) {
              pop.note_request(f.url);
              return pop.lookup(f.url, f.at).decision !=
                     edge::EdgeLookupDecision::Fresh;
            },
            [&](const Fetch& f, http::Response r) {
              pop.admit_and_store(f.url, std::move(r), f.at, f.at);
            }));
    set("edge.lookup_ns",
        ratio(time_passes(spans, "edge::EdgePop::lookup", [&] {
                std::size_t sum = 0;
                for (const Fetch& f : stream) {
                  sum += static_cast<std::size_t>(
                      pop.lookup(f.url, f.at).decision);
                }
                return sum;
              }),
              static_cast<double>(stream.size())));
  }

  // core: testbed assembly, per-visit wall time, and the heap a testbed
  // holds after its timeline, for the fleet's first users (treatment arm,
  // bound to one shared PoP when the workload has an edge tier).
  {
    SpanScope group(spans, "core");
    std::unique_ptr<edge::EdgePop> pop;
    if (params.edge.enabled()) {
      pop = std::make_unique<edge::EdgePop>(edge_config(params));
    }
    std::vector<double> build_us, visit_ms, testbed_kb;
    for (std::uint64_t u = 0; u < std::min(w.users, kCoreUsers); ++u) {
      const fleet::UserProfile& profile = profiles[u];
      core::StrategyOptions options = params.options;
      options.mobile_client = profile.mobile_client;
      options.edge_pop = pop.get();
      options.edge_origin_rtt = params.edge.origin_rtt;
      netsim::NetworkConditions conditions =
          fleet::conditions_for(profile.tier);
      conditions.faults = params.faults;
      conditions.faults.stream = profile.user_id;

      const std::size_t heap0 = heap_in_use();
      std::uint64_t t0 = mono_ns();
      std::optional<core::Testbed> tb;
      {
        SpanScope span(spans, "core::make_testbed", request_id(u, 0));
        tb.emplace(core::make_testbed(sites.at(profile.site_index),
                                      conditions, params.strategy, options));
      }
      build_us.push_back(static_cast<double>(mono_ns() - t0) / 1e3);
      for (std::size_t v = 0; v < profile.visits.size(); ++v) {
        SpanScope span(spans, "core::run_visit",
                       request_id(u, static_cast<std::uint32_t>(v)));
        t0 = mono_ns();
        core::run_visit(*tb, profile.visits[v]);
        visit_ms.push_back(static_cast<double>(mono_ns() - t0) / 1e6);
      }
      const std::size_t heap1 = heap_in_use();
      testbed_kb.push_back(
          heap1 > heap0 ? static_cast<double>(heap1 - heap0) / 1024.0 : 0.0);
    }
    set("core.testbed_build_us", percentile(build_us, 50));
    set("core.testbed_kb", percentile(testbed_kb, 50));
    set("core.visit_ms_p50", percentile(visit_ms, 50));
    set("core.visit_ms_p99", percentile(visit_ms, 99));
  }
}

/// Per-layer metrics read from the replays themselves: the traced run's
/// self-profile and report tallies, the untraced run's wall clock.
void layer_counters(const Workload& w, const Replay& untraced,
                    const Replay& traced, Json& out) {
  const auto set = [&out](const char* name, double v) {
    out.set(name, Json::number(v));
  };
  const fleet::FleetReport& r = traced.report;
  const obs::ProfCounters& prof = r.prof;
  const auto ops = [&prof](obs::Sub s) {
    return static_cast<double>(prof.ops[obs::sub_index(s)]);
  };
  const auto share = [&prof](obs::Sub s) {
    return ratio(static_cast<double>(prof.ns[obs::sub_index(s)]),
                 static_cast<double>(prof.total_ns()));
  };

  set("fleet.shards", static_cast<double>(untraced.shards));
  set("fleet.worker_idle_share",
      std::max(0.0, 1.0 - untraced.cpu_s /
                              (w.threads * untraced.wall_s)));
  std::vector<double> serialize_ms;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = mono_ns();
    keep(untraced.report.serialize().size());
    serialize_ms.push_back(static_cast<double>(mono_ns() - t0) / 1e6);
  }
  set("fleet.serialize_ms", percentile(serialize_ms, 50));
  set("fleet.self_share", share(obs::Sub::kFleet));

  set("cache.fresh_hit_ratio",
      ratio(static_cast<double>(r.counters.from_cache),
            static_cast<double>(r.counters.total())));
  set("cache.sw_hit_ratio",
      ratio(static_cast<double>(r.counters.from_sw_cache),
            static_cast<double>(r.counters.total())));
  set("cache.revalidations", static_cast<double>(r.counters.not_modified));

  set("client.fetches", ops(obs::Sub::kClient));
  set("client.sw_interceptions", ops(obs::Sub::kSw));
  set("client.retries", static_cast<double>(r.faults.retries));
  set("client.timeouts", static_cast<double>(r.faults.timeouts));
  set("client.failed_loads", static_cast<double>(r.faults.failed_loads));
  set("client.fallback_revalidations",
      static_cast<double>(r.faults.fallback_revalidations));
  set("client.self_share", share(obs::Sub::kClient) + share(obs::Sub::kSw));

  const double events = static_cast<double>(r.events_executed);
  set("netsim.events", events);
  set("netsim.events_per_s", ratio(events, untraced.wall_s));
  set("netsim.event_ns",
      ratio(static_cast<double>(prof.ns[obs::sub_index(obs::Sub::kLoop)]),
            ops(obs::Sub::kLoop)));
  set("netsim.exchanges", ops(obs::Sub::kTransport));
  set("netsim.rtts", static_cast<double>(r.rtts + r.baseline_rtts));
  set("netsim.wire_mb",
      static_cast<double>(r.bytes_on_wire + r.baseline_bytes_on_wire) /
          (1024.0 * 1024.0));
  set("netsim.loop_self_share", share(obs::Sub::kLoop));

  fleet::EdgePopReport e;
  for (const auto& [pop, stats] : r.edge_pops) e.merge(stats);
  const double requests = static_cast<double>(e.requests);
  set("edge.requests", requests);
  set("edge.hit_ratio",
      ratio(static_cast<double>(e.hits + e.flash_hits), requests));
  set("edge.origin_offload_pct",
      ratio(100.0 * (requests - static_cast<double>(e.origin_fetches)),
            requests));
  set("edge.coalesced", static_cast<double>(e.coalesced + e.flash_coalesced));
  set("edge.admission_rejects", static_cast<double>(e.admission_rejects));
  set("edge.stores", static_cast<double>(e.stores));
  set("edge.evictions", static_cast<double>(e.evictions));
  set("edge.negative_hits", static_cast<double>(e.negative_hits));
  set("edge.self_share", share(obs::Sub::kEdge));

  set("io.aio_reads", static_cast<double>(e.aio_reads));
  set("io.aio_writes", static_cast<double>(e.aio_writes));
  set("io.aio_queue_waits", static_cast<double>(e.aio_queue_waits));
  set("io.aio_merged_reads", static_cast<double>(e.aio_merged_reads));
  set("flash.hits", static_cast<double>(e.flash_hits));
  set("flash.gc_rewrites", static_cast<double>(e.flash_gc_rewrites));
  set("flash.write_amp", e.flash_write_amp());
  set("flash.self_share", share(obs::Sub::kFlash));

  set("core.visits", static_cast<double>(r.visits));
  set("check.oracle_checked", static_cast<double>(r.oracle.checked));
  set("check.oracle_allowed_stale",
      static_cast<double>(r.oracle.allowed_stale));
  set("check.oracle_violations", static_cast<double>(r.oracle.violations));
  set("obs.trace_overhead_ratio", ratio(traced.cpu_s, untraced.cpu_s));
}

// ---------------------------------------------------------------- main

std::optional<std::string> flag(int argc, char** argv, std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != name) continue;
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      return std::string(argv[i + 1]);
    }
    return std::string();
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto name = flag(argc, argv, "--workload");
  const auto seed_arg = flag(argc, argv, "--seed");
  std::optional<Workload> w;
  if (name && seed_arg && !seed_arg->empty()) {
    w = make_workload(*name, std::strtoull(seed_arg->c_str(), nullptr, 10));
  }
  if (!w) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload private|edge|churn --seed S "
                 "[--users N] [--setup-only | --traced [--spans FILE]]\n");
    return 2;
  }
  if (const auto users = flag(argc, argv, "--users")) {
    w->users = std::strtoull(users->c_str(), nullptr, 10);
    if (w->users == 0) {
      std::fprintf(stderr, "fleet_bench: --users must be positive\n");
      return 2;
    }
  }
  const bool traced_mode = flag(argc, argv, "--traced").has_value();

  Json out = Json::object();
  out.set("workload", Json::string(*name));
  out.set("seed", Json::string(*seed_arg));
  out.set("users", num(static_cast<double>(w->users)));
  out.set("threads", num(w->threads));
  out.set("build_type", Json::string(BENCH_BUILD_TYPE));
  out.set("compiler", Json::string(BENCH_COMPILER));

  if (flag(argc, argv, "--setup-only")) {
    // Set-up only: everything a pass does before run() begins.
    const fleet::FleetRunner runner(w->params, w->users, w->threads);
    out.set("run_start_ns", num(static_cast<double>(mono_ns())));
    std::printf("%s\n", out.dump().c_str());
    return runner.shard_count() > 0 ? 0 : 1;
  }

  Spans spans;  // written out only by --traced
  const Replay untraced = replay(w->params, w->users, w->threads, spans);
  out.set("run_start_ns", num(static_cast<double>(untraced.start_ns)));
  out.set("wall_s", num(untraced.wall_s));
  out.set("cpu_s", num(untraced.cpu_s));
  out.set("report", report_facts(untraced, w->params));

  if (traced_mode) {
    fleet::FleetParams traced_params = w->params;
    traced_params.trace_users = kTracedUsers;
    obs::set_timing(true);
    const Replay traced = replay(traced_params, w->users, 1, spans);
    obs::set_timing(false);
    out.set("serialized", Json::string(untraced.serialized));
    out.set("traced_serialized", Json::string(traced.serialized));

    Json layers = Json::object();
    layer_counters(*w, untraced, traced, layers);
    {
      SpanScope root(spans, "probes");
      run_probes(*w, traced.report, spans, layers);
    }
    out.set("layers", std::move(layers));
    if (const auto path = flag(argc, argv, "--spans"); path && !path->empty()) {
      if (!spans.write(*path)) {
        std::fprintf(stderr, "fleet_bench: cannot write %s\n", path->c_str());
        return 1;
      }
    }
  }
  out.set("peak_rss_kb", num(peak_rss_kb()));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
