// Per-origin connection pools — the browser's network stack.
//
// HTTP/1.1 mode opens up to six parallel connections per origin (Chrome's
// limit) and serializes requests on each; HTTP/2 mode multiplexes one
// connection and receives server pushes. Connections do not survive
// between page visits (the revisit delays in the evaluation are minutes to
// a week — far beyond keep-alive).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/metrics.h"
#include "netsim/transport.h"

namespace catalyst::client {

struct FetcherConfig {
  netsim::Protocol protocol = netsim::Protocol::H1;
  bool tls = true;
  std::size_t max_connections_per_origin = 6;

  /// Per-request deadlines and budgeted GET retries (fetcher.cpp holds
  /// the schedule). Off by default, in which case the fetcher runs no
  /// timers and no retries, so zero-fault runs stay byte-identical.
  bool resilient = false;
};

class Fetcher {
 public:
  using ResponseCallback = std::function<void(http::Response)>;

  Fetcher(netsim::Network& network, std::string client_host,
          FetcherConfig config);

  /// Dispatches a request to `origin_host`, creating/reusing pooled
  /// connections. Responses arrive via the event loop.
  void fetch(const std::string& origin_host, http::Request request,
             ResponseCallback on_response);

  /// Server events, bound to each connection when the pool opens it (so
  /// set them before the first fetch). Receives (origin host, pushed
  /// response) for each HTTP/2 server push.
  void set_push_handler(netsim::Connection::PushCallback handler) {
    events_.on_push = std::move(handler);
  }

  /// Receives (origin host, promised target) when a PUSH_PROMISE lands.
  void set_promise_handler(netsim::Connection::PromiseCallback handler) {
    events_.on_promise = std::move(handler);
  }

  /// Receives (origin host, hinted URLs) when a 103 Early Hints lands.
  void set_hints_handler(netsim::Connection::HintsCallback handler) {
    events_.on_hints = std::move(handler);
  }

  /// Drops all connections (between visits).
  void close_all();

  /// Aggregate over all current connections (reset by close_all — callers
  /// snapshot per visit).
  int total_rtts() const;
  ByteCount total_bytes_received() const;
  std::size_t connection_count() const;

  /// Timeouts, retries and connection failures since the last close_all
  /// (the other FaultCounters fields stay zero; the page loader counts
  /// them).
  const FaultCounters& faults() const { return faults_; }

 private:
  struct PendingFetch;

  netsim::Connection& pick_connection(const std::string& origin_host);

  /// Resilient path: dispatches one attempt with a deadline timer and
  /// attempt-token guards against late responses/errors.
  void dispatch(const std::shared_ptr<PendingFetch>& fetch);
  void retry_or_fail(const std::shared_ptr<PendingFetch>& fetch);

  netsim::Network& network_;
  std::string client_host_;
  FetcherConfig config_;
  std::map<std::string, std::vector<std::unique_ptr<netsim::Connection>>>
      pools_;
  netsim::Connection::ServerEvents events_;
  std::set<std::string> dns_resolved_;  // origins already resolved
  FaultCounters faults_;
};

}  // namespace catalyst::client
