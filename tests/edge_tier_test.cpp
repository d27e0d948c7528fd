// Edge tier unit + data-path tests: SLRU segmentation, TinyLFU admission,
// shared-cache policy, Catalyst map refresh on 304, request coalescing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "edge/node.h"
#include "edge/pop.h"
#include "edge/slru.h"
#include "edge/tinylfu.h"
#include "http/headers.h"
#include "netsim/transport.h"

namespace catalyst::edge {
namespace {

http::Response cacheable_response(std::string etag, std::size_t body_bytes,
                                  const std::string& cache_control =
                                      "max-age=60") {
  http::Response resp = http::Response::make(http::Status::Ok);
  resp.body = std::string(body_bytes, 'x');
  resp.headers.set(http::kEtagHeader, std::move(etag));
  resp.headers.set(http::kCacheControl, cache_control);
  return resp;
}

cache::CacheEntry entry_of(std::size_t body_bytes) {
  cache::CacheEntry entry;
  entry.response = cacheable_response("\"e\"", body_bytes);
  return entry;
}

/// Evicts every entry and returns the keys in eviction order.
std::vector<std::string> drain(SlruStore& store) {
  std::vector<std::string> order;
  while (const auto key = store.victim_key()) {
    order.push_back(*key);
    EXPECT_TRUE(store.evict_victim());
  }
  return order;
}

TEST(SlruStoreTest, PromotesOnSecondReferenceAndEvictsColdTail) {
  SlruStore store(10 * 1024, /*protected_fraction=*/0.8);
  ASSERT_TRUE(store.put("a", entry_of(2000)));
  ASSERT_TRUE(store.put("b", entry_of(2000)));
  EXPECT_EQ(store.victim_key(), "a");  // probation's LRU tail

  // First re-reference moves "a" to the protected segment, so entries
  // that enter probation after it are still evicted before it: plain LRU
  // would evict b, a, c.
  ASSERT_NE(store.get("a"), nullptr);
  ASSERT_TRUE(store.put("c", entry_of(2000)));
  EXPECT_EQ(store.victim_key(), "b");
  EXPECT_TRUE(store.evict_victim());
  EXPECT_EQ(store.peek("b"), nullptr);
  ASSERT_NE(store.peek("a"), nullptr);
  EXPECT_EQ(store.peek("a")->response.body.size(), 2000u);
  EXPECT_EQ(store.evictions(), 1u);
  // Probation drains first; the protected tail goes last.
  EXPECT_EQ(drain(store), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(store.size_bytes(), 0u);
}

TEST(SlruStoreTest, OverflowingProtectedDemotesItsTailToProbation) {
  // The protected budget (a quarter of 10 KiB) holds one ~2 KiB entry.
  SlruStore store(10 * 1024, /*protected_fraction=*/0.25);
  ASSERT_TRUE(store.put("a", entry_of(2000)));
  ASSERT_TRUE(store.put("b", entry_of(2000)));
  ASSERT_TRUE(store.put("c", entry_of(2000)));
  const ByteCount stored = store.size_bytes();
  ASSERT_NE(store.get("a"), nullptr);  // promotes "a"
  // Promoting "b" overflows the protected budget: its tail "a" moves
  // back to probation's MRU end, behind "c".
  ASSERT_NE(store.get("b"), nullptr);
  EXPECT_EQ(store.size_bytes(), stored);  // moved, never copied or lost
  ASSERT_NE(store.peek("a"), nullptr);
  EXPECT_EQ(store.peek("a")->response.body.size(), 2000u);
  EXPECT_EQ(drain(store), (std::vector<std::string>{"c", "a", "b"}));
  EXPECT_EQ(store.evictions(), 3u);
}

TEST(SlruStoreTest, DemotedEntryEarnsPromotionAgain) {
  SlruStore store(10 * 1024, /*protected_fraction=*/0.25);
  ASSERT_TRUE(store.put("a", entry_of(2000)));
  ASSERT_TRUE(store.put("b", entry_of(2000)));
  ASSERT_TRUE(store.put("c", entry_of(2000)));
  ASSERT_NE(store.get("a"), nullptr);
  ASSERT_NE(store.get("b"), nullptr);  // demotes "a"
  ASSERT_NE(store.get("a"), nullptr);  // promotes "a", demotes "b"
  EXPECT_EQ(drain(store), (std::vector<std::string>{"c", "b", "a"}));
}

TEST(SlruStoreTest, PutRequiresRoomAndRejectsOversized) {
  SlruStore store(4096);
  EXPECT_FALSE(store.put("huge", entry_of(8192)));
  ASSERT_TRUE(store.put("a", entry_of(1500)));
  ASSERT_TRUE(store.put("b", entry_of(1500)));
  // A third entry would overflow: put refuses until the caller makes room.
  EXPECT_FALSE(store.put("c", entry_of(1500)));
  EXPECT_TRUE(store.evict_victim());
  EXPECT_TRUE(store.put("c", entry_of(1500)));
}

TEST(TinyLfuTest, SketchCountsAndAges) {
  FrequencySketch sketch(64);
  for (int i = 0; i < 5; ++i) sketch.record("hot");
  EXPECT_GE(sketch.estimate("hot"), 5u);
  EXPECT_EQ(sketch.estimate("never-seen"), 0u);
  sketch.age();
  EXPECT_GE(sketch.estimate("hot"), 2u);
  EXPECT_LT(sketch.estimate("hot"), 5u);
}

TEST(TinyLfuTest, AdmitsFrequentOverRare) {
  TinyLfuAdmission admission(/*expected_entries=*/128);
  for (int i = 0; i < 4; ++i) admission.record("hot");
  admission.record("one-hit");
  admission.record("one-hit-2");
  EXPECT_TRUE(admission.admit("hot", "one-hit"));
  EXPECT_FALSE(admission.admit("one-hit", "hot"));
  // Equal frequency does not displace (the incumbent wins ties).
  EXPECT_FALSE(admission.admit("one-hit", "one-hit-2"));
}

TEST(EdgePopTest, TinyLfuKeepsHotObjectAgainstScan) {
  EdgeConfig config;
  config.capacity = 8 * 1024;  // fits roughly three ~2 KiB entries
  EdgePop pop(config);
  const TimePoint t0{};

  const std::string hot = "origin/hot.css";
  pop.note_request(hot);
  ASSERT_TRUE(pop.admit_and_store(hot, cacheable_response("\"h\"", 2000),
                                  t0, t0));
  // Re-references build the hot object's frequency history (and promote
  // it out of probation).
  for (int i = 0; i < 5; ++i) {
    pop.note_request(hot);
    EXPECT_EQ(pop.lookup(hot, t0).decision, EdgeLookupDecision::Fresh);
  }

  // A one-touch scan of 20 distinct objects cannot flush it.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "origin/scan-" + std::to_string(i);
    pop.note_request(key);
    pop.admit_and_store(key, cacheable_response("\"s\"", 2000), t0, t0);
  }

  EXPECT_EQ(pop.lookup(hot, t0).decision, EdgeLookupDecision::Fresh);
  EXPECT_GT(pop.stats().admission_rejects, 0u);
}

TEST(EdgePopTest, SharedCacheRefusesPrivateAndNoStore) {
  EdgePop pop(EdgeConfig{});
  const TimePoint t0{};
  EXPECT_FALSE(pop.admit_and_store(
      "k1", cacheable_response("\"a\"", 100, "private, max-age=60"), t0, t0));
  EXPECT_FALSE(pop.admit_and_store(
      "k2", cacheable_response("\"b\"", 100, "no-store"), t0, t0));
  EXPECT_EQ(pop.stats().stores, 0u);
  EXPECT_EQ(pop.lookup("k1", t0).decision, EdgeLookupDecision::Miss);
  EXPECT_EQ(pop.lookup("k2", t0).decision, EdgeLookupDecision::Miss);
}

TEST(EdgePopTest, FutureEntriesRevalidateInsteadOfServingFresh) {
  // User-major fleet replay: a later user's clock restarts behind shared
  // state another user filled "in the future".
  EdgePop pop(EdgeConfig{});
  const TimePoint t0{};
  const TimePoint later = t0 + hours(12);
  ASSERT_TRUE(pop.admit_and_store("k", cacheable_response("\"v\"", 100),
                                  later, later));
  EXPECT_EQ(pop.lookup("k", t0).decision, EdgeLookupDecision::Stale);
  EXPECT_EQ(pop.lookup("k", later).decision, EdgeLookupDecision::Fresh);
}

TEST(EdgePopTest, NotModifiedRefreshesEtagConfigMap) {
  EdgePop pop(EdgeConfig{});
  const TimePoint t0{};
  http::Response html = cacheable_response("\"v1\"", 500, "no-cache");
  html.headers.set(http::kXEtagConfig, "{\"/a.css\":\"\\\"1\\\"\"}");
  ASSERT_TRUE(pop.admit_and_store("origin/", html, t0, t0));

  http::Response not_modified =
      http::Response::make(http::Status::NotModified);
  not_modified.headers.set(http::kEtagHeader, "\"v2\"");
  not_modified.headers.set(http::kXEtagConfig, "{\"/a.css\":\"\\\"2\\\"\"}");
  const cache::CacheEntry* entry =
      pop.refresh_not_modified("origin/", not_modified, t0 + hours(1),
                               t0 + hours(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->response.headers.get(http::kEtagHeader), "\"v2\"");
  EXPECT_EQ(entry->response.headers.get(http::kXEtagConfig),
            "{\"/a.css\":\"\\\"2\\\"\"}");
  // The stored body is untouched: 304 refreshes metadata only.
  EXPECT_EQ(entry->response.body.size(), 500u);
}

// ---------------------------------------------------------------------------
// Data-path tests: an EdgeNode between raw client connections and a
// scripted origin host.

class EdgeNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.add_host("client");
    network_.add_host("origin.example");
    pop_ = std::make_unique<EdgePop>(EdgeConfig{});
    network_.add_host(pop_->host_name());
    network_.set_rtt("client", pop_->host_name(), milliseconds(20));
    network_.set_rtt(pop_->host_name(), "origin.example", milliseconds(30));
    node_ = std::make_unique<EdgeNode>(*pop_, network_, "origin.example");
    install_origin("\"v1\"");
  }

  /// Origin serving one cacheable resource with the given ETag; counts
  /// requests and answers conditionals.
  void install_origin(std::string etag) {
    origin_etag_ = std::move(etag);
    network_.host("origin.example")
        .set_handler([this](const http::Request& request,
                            std::function<void(netsim::ServerReply)>
                                respond) {
          ++origin_requests_;
          netsim::ServerReply reply;
          const auto inm = request.headers.get(http::kIfNoneMatch);
          if (inm && *inm == origin_etag_) {
            ++origin_304s_;
            reply.response =
                http::Response::make(http::Status::NotModified);
            reply.response.headers.set(http::kEtagHeader, origin_etag_);
            reply.response.headers.set(http::kXEtagConfig, "{\"v\":2}");
          } else {
            reply.response = cacheable_response(origin_etag_, 3000);
            reply.response.headers.set(http::kXEtagConfig, "{\"v\":1}");
            reply.response.finalize(loop_.now());
          }
          respond(std::move(reply));
        });
  }

  /// Fires one GET from a fresh client connection; returns the slot the
  /// response lands in after loop_.run().
  std::size_t send_get(const std::string& target,
                       const std::string& if_none_match = "") {
    conns_.push_back(std::make_unique<netsim::Connection>(
        network_, "client", pop_->host_name(), /*tls=*/false,
        netsim::Protocol::H1));
    http::Request request = http::Request::get(target, pop_->host_name());
    if (!if_none_match.empty()) {
      request.headers.set(http::kIfNoneMatch, if_none_match);
    }
    const std::size_t slot = responses_.size();
    responses_.emplace_back();
    conns_.back()->send_request(
        std::move(request), [this, slot](http::Response response) {
          responses_[slot] = std::move(response);
        });
    return slot;
  }

  netsim::EventLoop loop_;
  netsim::Network network_{loop_};
  std::unique_ptr<EdgePop> pop_;
  std::unique_ptr<EdgeNode> node_;
  std::vector<std::unique_ptr<netsim::Connection>> conns_;
  std::vector<std::optional<http::Response>> responses_;
  std::string origin_etag_;
  int origin_requests_ = 0;
  int origin_304s_ = 0;
};

TEST_F(EdgeNodeTest, ConcurrentMissesCoalesceToOneOriginFetch) {
  constexpr int kClients = 5;
  for (int i = 0; i < kClients; ++i) send_get("/app.js");
  loop_.run();

  EXPECT_EQ(origin_requests_, 1);
  const EdgePopStats stats = pop_->stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats.origin_fetches, 1u);
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kClients));
  for (const auto& response : responses_) {
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, http::Status::Ok);
  }
}

TEST_F(EdgeNodeTest, SecondRequestIsServedFromTheEdge) {
  send_get("/app.js");
  loop_.run();
  ASSERT_EQ(origin_requests_, 1);

  const std::size_t slot = send_get("/app.js");
  loop_.run();
  EXPECT_EQ(origin_requests_, 1);  // no second origin touch
  ASSERT_TRUE(responses_[slot].has_value());
  EXPECT_EQ(responses_[slot]->status, http::Status::Ok);
  const EdgePopStats stats = pop_->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.requests, stats.hits + stats.revalidated_hits +
                                stats.misses);
}

TEST_F(EdgeNodeTest, ClientRevalidationAnsweredAtTheEdgeWithEtagConfig) {
  send_get("/index.html");
  loop_.run();
  ASSERT_EQ(origin_requests_, 1);

  // A revisiting client revalidates; the edge holds the entry fresh and
  // answers 304 itself — carrying the Catalyst map, exactly what the
  // Service Worker needs, with zero origin cost.
  const std::size_t slot = send_get("/index.html", "\"v1\"");
  loop_.run();
  EXPECT_EQ(origin_requests_, 1);
  ASSERT_TRUE(responses_[slot].has_value());
  EXPECT_EQ(responses_[slot]->status, http::Status::NotModified);
  EXPECT_EQ(responses_[slot]->headers.get(http::kXEtagConfig), "{\"v\":1}");
}

TEST_F(EdgeNodeTest, StaleEntryRevalidatesUpstreamAndRefreshesMap) {
  send_get("/index.html");
  loop_.run();
  ASSERT_EQ(origin_requests_, 1);

  // Age the entry past max-age=60: the next request must cost exactly one
  // conditional origin exchange, and the refreshed entry carries the
  // origin's new map.
  loop_.advance_to(loop_.now() + hours(1));
  const std::size_t slot = send_get("/index.html");
  loop_.run();
  EXPECT_EQ(origin_requests_, 2);
  EXPECT_EQ(origin_304s_, 1);
  ASSERT_TRUE(responses_[slot].has_value());
  EXPECT_EQ(responses_[slot]->status, http::Status::Ok);
  const EdgePopStats stats = pop_->stats();
  EXPECT_EQ(stats.revalidated_hits, 1u);
  EXPECT_EQ(stats.origin_not_modified, 1u);
  const EdgeLookupResult stored =
      pop_->lookup("origin.example/index.html", loop_.now());
  ASSERT_NE(stored.entry, nullptr);
  EXPECT_EQ(stored.entry->response.headers.get(http::kXEtagConfig),
            "{\"v\":2}");
}

TEST_F(EdgeNodeTest, EveryRequestResolvesExactlyOnce) {
  for (int i = 0; i < 3; ++i) send_get("/a.css");
  send_get("/b.css");
  loop_.run();
  send_get("/a.css");
  loop_.run();

  const EdgePopStats stats = pop_->stats();
  EXPECT_EQ(stats.requests,
            stats.hits + stats.revalidated_hits + stats.misses);
  EXPECT_EQ(stats.requests, 5u);
}

TEST_F(EdgeNodeTest, ServerErrorReachesCoalescedWaitersButIsNeverAdmitted) {
  // Regression: a transient 5xx fill used to be a store candidate. Every
  // coalesced waiter must see the error, but the next request after the
  // origin recovers must refetch — a cached 500 would pin the outage.
  network_.host("origin.example")
      .set_handler([this](const http::Request&,
                          std::function<void(netsim::ServerReply)> respond) {
        ++origin_requests_;
        netsim::ServerReply reply;
        reply.response =
            http::Response::make(http::Status::InternalServerError);
        reply.response.body = "boom";
        reply.response.headers.set(http::kCacheControl, "max-age=300");
        reply.response.finalize(loop_.now());
        respond(std::move(reply));
      });

  constexpr int kClients = 4;
  for (int i = 0; i < kClients; ++i) send_get("/app.js");
  loop_.run();

  EXPECT_EQ(origin_requests_, 1);  // one fill serves every waiter
  for (const auto& response : responses_) {
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, http::Status::InternalServerError);
  }
  const EdgePopStats after_error = pop_->stats();
  EXPECT_EQ(after_error.coalesced, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(after_error.stores, 0u);

  // Origin recovers: the next request must go upstream and succeed.
  install_origin("\"v2\"");
  const std::size_t slot = send_get("/app.js");
  loop_.run();
  EXPECT_EQ(origin_requests_, 2);
  ASSERT_TRUE(responses_[slot].has_value());
  EXPECT_EQ(responses_[slot]->status, http::Status::Ok);
}

TEST_F(EdgeNodeTest, StrictKeyingPartitionsByForwardedHost) {
  // An attacker request carrying X-Forwarded-Host must not share a cache
  // entry with clean traffic: the header selects a different (reflected)
  // representation at the origin.
  send_get("/app.js");
  loop_.run();
  ASSERT_EQ(origin_requests_, 1);

  conns_.push_back(std::make_unique<netsim::Connection>(
      network_, "client", pop_->host_name(), /*tls=*/false,
      netsim::Protocol::H1));
  http::Request poisoned = http::Request::get("/app.js", pop_->host_name());
  poisoned.headers.set(http::kXForwardedHost, "evil.example");
  conns_.back()->send_request(std::move(poisoned), [](http::Response) {});
  loop_.run();

  // Partitioned key: the poisoned request missed and went upstream.
  EXPECT_EQ(origin_requests_, 2);
  EXPECT_EQ(pop_->stats().hits, 0u);
}

TEST(EdgePopTest, NegativeEntriesStoreAndExpireUnderPolicy) {
  EdgeConfig config;
  config.negative.enabled = true;
  config.negative.default_ttl = seconds(60);
  EdgePop pop(config);
  const TimePoint t0 = TimePoint{} + hours(1);

  http::Response miss = http::Response::make(http::Status::NotFound);
  miss.body = "not found";
  miss.finalize(t0);
  ASSERT_TRUE(pop.admit_and_store("origin/gone.css", miss, t0, t0));
  EXPECT_EQ(pop.stats().negative_stores, 1u);

  // Fresh within the bounded TTL, gone after it (no revalidation: an
  // expired error has nothing to validate).
  EXPECT_EQ(pop.lookup("origin/gone.css", t0 + seconds(30)).decision,
            EdgeLookupDecision::Fresh);
  EXPECT_EQ(pop.stats().negative_hits, 1u);
  EXPECT_EQ(pop.lookup("origin/gone.css", t0 + seconds(90)).decision,
            EdgeLookupDecision::Miss);
  // The expired error was erased, not kept: even a lookup back inside its
  // lifetime misses.
  EXPECT_EQ(pop.lookup("origin/gone.css", t0 + seconds(30)).decision,
            EdgeLookupDecision::Miss);
}

TEST(EdgePopTest, NegativeCachingOffRefusesErrorResponses) {
  EdgePop pop(EdgeConfig{});  // negative caching defaults off
  const TimePoint t0 = TimePoint{} + hours(1);
  http::Response miss = http::Response::make(http::Status::NotFound);
  miss.body = "not found";
  miss.finalize(t0);
  EXPECT_FALSE(pop.admit_and_store("origin/gone.css", miss, t0, t0));
  EXPECT_EQ(pop.stats().negative_stores, 0u);
  EXPECT_EQ(pop.stats().stores, 0u);
}

/// Every counter EdgePopStats::merge sums: all fields but
/// aio_peak_inflight and flash_enabled.
constexpr std::uint64_t EdgePopStats::*kSummedFields[] = {
    &EdgePopStats::hits,
    &EdgePopStats::misses,
    &EdgePopStats::stores,
    &EdgePopStats::evictions,
    &EdgePopStats::bytes_served,
    &EdgePopStats::requests,
    &EdgePopStats::revalidated_hits,
    &EdgePopStats::coalesced,
    &EdgePopStats::origin_fetches,
    &EdgePopStats::origin_not_modified,
    &EdgePopStats::origin_errors,
    &EdgePopStats::admission_rejects,
    &EdgePopStats::bytes_from_origin,
    &EdgePopStats::negative_stores,
    &EdgePopStats::negative_hits,
    &EdgePopStats::adversary_requests,
    &EdgePopStats::adversary_probes,
    &EdgePopStats::adversary_probe_hits,
    &EdgePopStats::flash_hits,
    &EdgePopStats::flash_coalesced,
    &EdgePopStats::flash_demotions,
    &EdgePopStats::flash_promotions,
    &EdgePopStats::flash_promotion_rejects,
    &EdgePopStats::flash_stores,
    &EdgePopStats::flash_evictions,
    &EdgePopStats::flash_gc_rewrites,
    &EdgePopStats::flash_bytes_served,
    &EdgePopStats::flash_host_bytes,
    &EdgePopStats::flash_device_bytes,
    &EdgePopStats::aio_reads,
    &EdgePopStats::aio_writes,
    &EdgePopStats::aio_merged_reads,
    &EdgePopStats::aio_queue_waits,
};
// The list above plus aio_peak_inflight and the (padded) flash_enabled
// flag is the whole struct: a new field must join the list.
static_assert(sizeof(EdgePopStats) ==
              (std::size(kSummedFields) + 2) * sizeof(std::uint64_t));

TEST(EdgePopStatsTest, MergeSumsCountersMaxesPeakAndOrsFlash) {
  EdgePopStats a;
  EdgePopStats b;
  std::uint64_t n = 0;
  for (const auto field : kSummedFields) {
    a.*field = ++n;
    b.*field = 1000 * n;
  }
  a.aio_peak_inflight = 70;
  b.aio_peak_inflight = 5;
  b.flash_enabled = true;

  EdgePopStats merged = a;
  merged.merge(b);
  for (const auto field : kSummedFields) {
    EXPECT_EQ(merged.*field, a.*field + b.*field);
  }
  EXPECT_EQ(merged.aio_peak_inflight, 70u);
  EXPECT_TRUE(merged.flash_enabled);

  b.merge(a);
  EXPECT_EQ(b.aio_peak_inflight, 70u);
  EXPECT_TRUE(b.flash_enabled);
  a.merge(EdgePopStats{});
  EXPECT_FALSE(a.flash_enabled);
}

}  // namespace
}  // namespace catalyst::edge
