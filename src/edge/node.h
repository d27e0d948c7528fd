// Per-testbed network binding of an EdgePop.
//
// Fleet replay builds a fresh Testbed (own event loop + network) per user,
// while PoP cache state must persist across every user behind the PoP. The
// split: EdgePop (pop.h) is the long-lived shared state; EdgeNode is the
// throwaway adapter that registers the PoP's host on one testbed network,
// terminates client requests there, and speaks HTTP/2 to the origin.
//
// The node implements the CDN data path:
//   - request coalescing: concurrent misses for one resource collapse to a
//     single origin fetch, every waiter is answered from the one fill;
//   - origin revalidation: stale-but-validatable entries cost a conditional
//     GET; an origin 304 refreshes stored metadata (including the Catalyst
//     X-Etag-Config map) and the stored bytes are served;
//   - per-waiter conditionals: a client revalidation that matches the
//     edge's entry gets a 304 straight from the edge.
//
// Origin pushes are deliberately dropped at the edge: intermediaries
// forwarding h2 server push is effectively nonexistent in deployed CDNs,
// which is part of why the paper's pull-based design matters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "edge/pop.h"
#include "io/aio.h"
#include "netsim/network.h"
#include "netsim/transport.h"

namespace catalyst::edge {

class EdgeNode {
 public:
  /// Registers `pop.host_name()`'s request handler on `network`. The host
  /// must already exist, with RTTs configured to both client and origin.
  /// `origin_host` is the upstream this node fronts (one per testbed —
  /// the cache key carries it, so sites sharing a PoP never collide).
  EdgeNode(EdgePop& pop, netsim::Network& network, std::string origin_host);

  EdgeNode(const EdgeNode&) = delete;
  EdgeNode& operator=(const EdgeNode&) = delete;

 private:
  /// How a resolved request was answered — drives EdgePop accounting.
  /// hit = RAM bytes, no upstream exchange; flash hit = stored bytes after
  /// an async device read; revalidated = stored bytes after an upstream
  /// 304; miss = bytes fetched from origin this time.
  enum class Served { Hit, FlashHit, Revalidated, Miss };

  struct Waiter {
    http::Request request;
    std::function<void(netsim::ServerReply)> respond;
    TimePoint arrival{};  // when the request reached the PoP (obs phase)
  };

  /// One in-flight fetch — an origin exchange, or (flash_read) an async
  /// device read that may yet convert into one. Later requests for the
  /// same key join the waiter list instead of fetching again.
  struct Fill {
    std::vector<Waiter> waiters;
    TimePoint request_time{};
    bool retried = false;     // 304-for-evicted-entry refetch guard
    bool flash_read = false;  // waiting on the device, not the origin
  };

  /// Cache key for a client request: origin + path, partitioned by any
  /// unkeyed-but-reflected input (X-Forwarded-Host) under strict keying.
  /// With EdgeConfig::vulnerable_keying the partition is skipped — the
  /// planted poisoning bug the security oracle must catch.
  std::string cache_key(const http::Request& request) const;

  /// Builds the upstream request for a fill. Client conditionals never
  /// leak upstream, but X-Forwarded-Host does — the origin varies on it,
  /// which is what makes unkeyed caching of the result a poisoning bug.
  http::Request build_upstream(const http::Request& client) const;

  void handle(const http::Request& request,
              std::function<void(netsim::ServerReply)> respond);
  void on_flash_read(const std::string& key);
  void launch_fetch(const std::string& key, http::Request upstream);
  void on_origin_response(const std::string& key, http::Response response);
  void on_origin_error(const std::string& key);

  /// Answers one waiter from an authoritative response (stored entry or
  /// fresh origin fill): evaluates the waiter's own conditionals, then
  /// schedules the reply after the edge's processing delay.
  void reply_to_waiter(const Waiter& waiter, const http::Response& source,
                       Served served);

  /// Lazily (re)built H2 connection to the origin. Broken connections move
  /// to the graveyard: their scheduled callbacks may still fire, so they
  /// must outlive the loop.
  netsim::Connection& origin_connection();

  EdgePop& pop_;
  netsim::Network& network_;
  std::string origin_host_;
  // Keyed by cache key; coalescing lookups happen per request.
  std::unordered_map<std::string, Fill> inflight_;
  /// Device queue for this testbed's flash reads/writes (null when the
  /// PoP has no flash tier). Per-node because completions schedule on
  /// this testbed's loop; the RNG and telemetry it drives live in the
  /// PoP so the latency stream persists across testbeds.
  std::unique_ptr<io::AioEngine> aio_;
  std::unique_ptr<netsim::Connection> origin_conn_;
  std::vector<std::unique_ptr<netsim::Connection>> graveyard_;
};

}  // namespace catalyst::edge
