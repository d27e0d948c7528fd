// TCP/TLS connection model over the simulated network.
//
// Connections cost what they cost in the latency-constrained web the paper
// studies: a TCP handshake RTT, a TLS 1.3 handshake RTT, then one RTT plus
// transmission per request/response exchange. HTTP/1.1 connections carry
// one request at a time (the browser opens up to six per origin); HTTP/2
// connections multiplex and can carry server pushes.
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "http/message.h"
#include "netsim/faults.h"
#include "netsim/network.h"
#include "obs/recorder.h"

namespace catalyst::netsim {

enum class Protocol { H1, H2 };

class Connection {
 public:
  using ResponseCallback = std::function<void(http::Response)>;
  /// Server-initiated events. Each handler receives the connection's
  /// server host name first, so one handler can serve every origin.
  using PushCallback =
      std::function<void(const std::string& server, PushedResponse)>;
  /// Announces a PUSH_PROMISE: the tiny promise frame races ahead of the
  /// response bodies, so the client learns "don't request this target,
  /// it is on its way" roughly one propagation delay after the server
  /// commits to pushing.
  using PromiseCallback = std::function<void(const std::string& server,
                                             const std::string& target)>;
  /// Delivers a 103 Early Hints interim response: the hinted preload
  /// targets arrive ahead of the main response body.
  using HintsCallback = std::function<void(
      const std::string& server, const std::vector<std::string>& urls)>;
  /// Fires when the request's exchange fails with a *detectable* error
  /// (connection reset mid-stream, or the connection broke while the
  /// request was still queued). Silent faults — stalls, dark
  /// origins — fire nothing; only a client deadline recovers those.
  using ErrorCallback = std::function<void()>;

  /// The server events a connection delivers, bound once when it opens.
  /// An unset handler drops its event: pushes also drop on H1, which
  /// cannot express them.
  struct ServerEvents {
    PushCallback on_push;
    PromiseCallback on_promise;
    HintsCallback on_hints;
  };

  /// `client`/`server` are host names registered in `network`. When
  /// `resolve_dns` is set, the handshake additionally pays the network's
  /// DNS lookup delay (the pool sets it on the first connection to an
  /// origin; later connections hit the resolver cache).
  Connection(Network& network, std::string client, std::string server,
             bool tls, Protocol protocol, bool resolve_dns = false,
             ServerEvents events = {});

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Requests in flight plus queued (pool load-balancing metric).
  std::size_t pending() const { return inflight_ + queue_.size(); }

  /// Sends a request; the first one on an idle connection starts the
  /// handshake, and requests sent before it completes wait for it.
  void send_request(http::Request request, ResponseCallback on_response,
                    ErrorCallback on_error = nullptr);

  /// Marks the connection dead: queued requests error out, in-flight
  /// exchanges are orphaned (late completions are ignored via pump()'s
  /// state guard), and the pool stops handing the connection new work.
  /// The object stays alive — scheduled callbacks capture `this`, so
  /// destruction waits for close_all() after the loop drains.
  void fail();
  bool broken() const { return state_ == State::Broken; }

  /// RTTs consumed so far (handshake + one per completed exchange).
  int rtts_consumed() const { return rtts_consumed_; }
  int requests_completed() const { return requests_completed_; }
  ByteCount bytes_received() const { return bytes_received_; }
  ByteCount bytes_sent() const { return bytes_sent_; }

 private:
  enum class State { Idle, Connecting, Established, Broken };

  struct PendingRequest {
    http::Request request;
    ResponseCallback on_response;
    ErrorCallback on_error;
    FaultDecision fault;  // decided when the exchange starts
    // Phase-breakdown bookkeeping (inert unless a recorder is attached).
    // A request that initiated the connection's handshake charges that
    // wait to the Dns/Connect/Tls phases recorded when the handshake
    // starts, so its queue phase starts at establishment; a request that
    // merely rides an in-progress handshake (or waits behind h1 traffic)
    // charges the whole wait to kQueue. Together the client phases of a
    // fetch sum exactly to its duration.
    TimePoint enqueued{};
    TimePoint exchange_start{};
    bool handshake_owner = false;
    obs::PhaseTimeline timeline;
  };

  void start_handshake();
  void start_exchange(PendingRequest pending);
  void deliver_reply(ServerReply reply, PendingRequest& pending);
  void pump();  // H1: issue the next queued request if idle

  Network& network_;
  std::string client_;
  std::string server_;
  bool tls_;
  Protocol protocol_;
  bool resolve_dns_;
  ServerEvents events_;
  State state_ = State::Idle;
  TimePoint established_at_{};
  std::deque<PendingRequest> queue_;  // H1 serialization
  std::size_t inflight_ = 0;
  int rtts_consumed_ = 0;
  int requests_completed_ = 0;
  ByteCount bytes_received_ = 0;
  ByteCount bytes_sent_ = 0;
};

}  // namespace catalyst::netsim
