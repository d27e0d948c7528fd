// Simulated network topology: named hosts with access links, pairwise
// propagation delays, and a message-delivery primitive.
//
// The evaluation topology mirrors the paper's testbed: a client behind a
// throttled access link, origins reachable at a configurable RTT, and (for
// the RDR baseline) a proxy placed near the origins. Contention happens on
// the access links — exactly what browser throttling shapes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "netsim/event_loop.h"
#include "netsim/link.h"
#include "util/types.h"

namespace catalyst::netsim {

class FaultPlan;

/// Access-link capacities of a host.
struct HostSpec {
  Bandwidth uplink = gbps(1);
  Bandwidth downlink = gbps(1);
};

/// A resource pushed alongside a response (HTTP/2 Server Push).
struct PushedResponse {
  std::string target;  // request path the push answers
  http::Response response;
};

/// What a server hands back for one request.
struct ServerReply {
  http::Response response;
  std::vector<PushedResponse> pushes;  // h2 connections only

  /// 103 Early Hints: Link rel=preload targets announced ahead of the
  /// full response (a tiny interim response that races the body).
  std::vector<std::string> early_hint_urls;
};

/// Server application callback: receive a request, eventually respond.
/// Handlers may delay the respond call via the event loop (processing
/// time); respond must be called exactly once.
using RequestHandler =
    std::function<void(const http::Request&, std::function<void(ServerReply)>)>;

class Host {
 public:
  Host(EventLoop& loop, std::string name, const HostSpec& spec);

  const std::string& name() const { return name_; }
  Link& uplink() { return *uplink_; }
  Link& downlink() { return *downlink_; }

  void set_handler(RequestHandler handler) { handler_ = std::move(handler); }
  const RequestHandler& handler() const { return handler_; }

 private:
  std::string name_;
  std::unique_ptr<Link> uplink_;
  std::unique_ptr<Link> downlink_;
  RequestHandler handler_;
};

class Network {
 public:
  explicit Network(EventLoop& loop) : loop_(loop) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop& loop() { return loop_; }

  Host& add_host(const std::string& name, const HostSpec& spec = {});
  Host& host(const std::string& name);
  bool has_host(const std::string& name) const;

  /// Sets the symmetric propagation RTT between two hosts.
  void set_rtt(const std::string& a, const std::string& b, Duration rtt);
  Duration rtt(const std::string& a, const std::string& b) const;
  Duration one_way(const std::string& a, const std::string& b) const {
    return rtt(a, b) / 2;
  }

  /// Transfers `bytes` from `from` to `to`: the contended (slower) access
  /// link clocks the bytes, then one-way propagation elapses, then
  /// `on_delivered` runs. This is the only way bytes move in catalyst.
  void send_bytes(const std::string& from, const std::string& to,
                  ByteCount bytes, EventFn on_delivered);

  /// DNS resolution delay paid once per (client, origin) pair — the first
  /// connection to an origin resolves its name before the TCP handshake.
  void set_dns_lookup(Duration delay) { dns_lookup_ = delay; }
  Duration dns_lookup() const { return dns_lookup_; }

  /// Total bytes moved through the network so far.
  ByteCount total_bytes_transferred() const { return total_bytes_; }

  /// Fault-injection plan consulted by connections (non-owning; nullptr —
  /// the default — means the fault layer is not wired and transport code
  /// takes its original paths untouched).
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  // One symmetric RTT, names ordered lo < hi.
  struct RttPair {
    std::string lo;
    std::string hi;
    Duration rtt;
  };

  EventLoop& loop_;
  std::unordered_map<std::string, std::unique_ptr<Host>> hosts_;
  // A testbed links a handful of hosts, so rtt() scans.
  std::vector<RttPair> rtts_;
  Duration dns_lookup_ = Duration::zero();
  ByteCount total_bytes_ = 0;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace catalyst::netsim
