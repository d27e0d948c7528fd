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
  /// Receives (origin host, pushed response).
  using PushCallback =
      std::function<void(const std::string&, netsim::PushedResponse)>;

  Fetcher(netsim::Network& network, std::string client_host,
          FetcherConfig config);

  /// Dispatches a request to `origin_host`, creating/reusing pooled
  /// connections. Responses arrive via the event loop.
  void fetch(const std::string& origin_host, http::Request request,
             ResponseCallback on_response);

  /// Receives HTTP/2 server pushes from any connection.
  void set_push_handler(PushCallback handler) {
    push_handler_ = std::move(handler);
  }

  /// Receives (origin host, promised target) when a PUSH_PROMISE lands.
  using PromiseCallback =
      std::function<void(const std::string&, const std::string&)>;
  void set_promise_handler(PromiseCallback handler) {
    promise_handler_ = std::move(handler);
  }

  /// Receives (origin host, hinted URLs) when a 103 Early Hints lands.
  using HintsCallback = std::function<void(const std::string&,
                                           const std::vector<std::string>&)>;
  void set_hints_handler(HintsCallback handler) {
    hints_handler_ = std::move(handler);
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

  /// Sends `request` on `conn`, wrapping the push, promise and hints
  /// handlers so they learn which origin the connection serves.
  void send(netsim::Connection& conn, const std::string& origin,
            http::Request request, ResponseCallback on_response,
            netsim::Connection::ErrorCallback on_error = nullptr);

  /// Resilient path: dispatches one attempt with a deadline timer and
  /// attempt-token guards against late responses/errors.
  void dispatch(const std::shared_ptr<PendingFetch>& fetch);
  void retry_or_fail(const std::shared_ptr<PendingFetch>& fetch);

  netsim::Network& network_;
  std::string client_host_;
  FetcherConfig config_;
  std::map<std::string, std::vector<std::unique_ptr<netsim::Connection>>>
      pools_;
  PushCallback push_handler_;
  PromiseCallback promise_handler_;
  HintsCallback hints_handler_;
  std::set<std::string> dns_resolved_;  // origins already resolved
  FaultCounters faults_;
};

}  // namespace catalyst::client
