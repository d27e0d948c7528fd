#include "netsim/transport.h"

#include <algorithm>
#include <stdexcept>

#include "obs/selfprof.h"

namespace catalyst::netsim {

Connection::Connection(Network& network, std::string client,
                       std::string server, bool tls, Protocol protocol,
                       bool resolve_dns, ServerEvents events)
    : network_(network),
      client_(std::move(client)),
      server_(std::move(server)),
      tls_(tls),
      protocol_(protocol),
      resolve_dns_(resolve_dns),
      events_(std::move(events)) {}

void Connection::start_handshake() {
  state_ = State::Connecting;
  // TCP handshake costs one RTT before data can flow; TLS 1.3 adds one
  // more. Handshake packets are tiny — propagation dominates, so we charge
  // pure RTTs.
  const int handshake_rtts = tls_ ? 2 : 1;
  rtts_consumed_ += handshake_rtts;
  const Duration rtt = network_.rtt(client_, server_);
  Duration handshake = rtt * handshake_rtts;
  if (resolve_dns_) handshake += network_.dns_lookup();
  if (auto* rec = network_.loop().recorder()) {
    // Handshake phases are charged once per connection, at initiation;
    // the request that triggered the handshake owns them (its queue phase
    // starts at establishment — see PendingRequest::handshake_owner).
    rec->record(obs::Phase::kConnect, rtt);
    if (tls_) rec->record(obs::Phase::kTls, rtt);
    if (resolve_dns_) rec->record(obs::Phase::kDns, network_.dns_lookup());
  }
  network_.loop().schedule_after(handshake, [this] {
    if (state_ != State::Connecting) return;  // failed during handshake
    state_ = State::Established;
    established_at_ = network_.loop().now();
    pump();
  });
}

void Connection::fail() {
  if (state_ == State::Broken) return;
  state_ = State::Broken;
  // Error out queued requests via the loop: fail() can run inside a
  // transfer callback, and the error handlers typically re-enter the
  // pool to retry on a fresh connection.
  auto queued = std::move(queue_);
  queue_.clear();
  for (auto& pending : queued) {
    if (!pending.on_error) continue;
    network_.loop().schedule_after(Duration::zero(),
                                   std::move(pending.on_error));
  }
}

void Connection::send_request(http::Request request,
                              ResponseCallback on_response,
                              ErrorCallback on_error) {
  if (state_ == State::Broken) {
    if (on_error) {
      network_.loop().schedule_after(Duration::zero(), std::move(on_error));
    }
    return;
  }
  PendingRequest& pending = queue_.emplace_back();
  pending.request = std::move(request);
  pending.on_response = std::move(on_response);
  pending.on_error = std::move(on_error);
  pending.enqueued = network_.loop().now();
  pending.handshake_owner = state_ == State::Idle;
  if (pending.handshake_owner) start_handshake();
  pump();  // waits for establishment
}

void Connection::pump() {
  if (state_ != State::Established) return;
  while (!queue_.empty()) {
    if (protocol_ == Protocol::H1 && inflight_ > 0) return;
    PendingRequest pending = std::move(queue_.front());
    queue_.pop_front();
    start_exchange(std::move(pending));
  }
}

void Connection::start_exchange(PendingRequest pending) {
  ++inflight_;
  ++rtts_consumed_;  // request leg + response leg propagation
  obs::count(obs::Sub::kTransport);
  if (network_.loop().recorder() != nullptr) {
    const TimePoint now = network_.loop().now();
    // Owner: handshake time is already in Dns/Connect/Tls, queue starts
    // at establishment. Rider: the whole wait (including any handshake it
    // rode) is queueing.
    const TimePoint ready =
        pending.handshake_owner ? established_at_ : pending.enqueued;
    pending.timeline.add(obs::Phase::kQueue, now - ready);
    pending.exchange_start = now;
  }
  if (FaultPlan* plan = network_.fault_plan()) {
    pending.fault = plan->next_request();
  }
  const ByteCount request_bytes = pending.request.wire_size();
  bytes_sent_ += request_bytes;

  // Move the request to the server, hand it to the application, then move
  // the reply (and any pushes) back.
  auto shared = std::make_shared<PendingRequest>(std::move(pending));
  network_.send_bytes(client_, server_, request_bytes, [this, shared] {
    const FaultPlan* plan = network_.fault_plan();
    if (plan != nullptr && plan->origin_dark(network_.loop().now())) {
      // Dark origin: the request's bytes crossed the wire but nothing
      // answers and no error is raised — blackhole. The client deadline
      // timer is the only way out; the exchange stays in flight.
      return;
    }
    const RequestHandler& handler = network_.host(server_).handler();
    if (!handler) {
      throw std::logic_error("Connection: host " + server_ +
                             " has no request handler");
    }
    handler(shared->request, [this, shared](ServerReply reply) {
      deliver_reply(std::move(reply), *shared);
    });
  });
}

void Connection::deliver_reply(ServerReply reply, PendingRequest& pending) {
  obs::ScopedTimer prof_timer(obs::Sub::kTransport);
  ResponseCallback on_response = std::move(pending.on_response);

  if (pending.fault.drop_mid_stream || pending.fault.stall) {
    // The response transfer dies partway: a fraction of the bytes occupy
    // the wire (and contend with healthy flows), then either the
    // connection surfaces an error (drop — think RST) or nothing more
    // ever happens (stall; only a client deadline recovers). Hints and
    // pushes ride the same doomed stream and are lost with it.
    const ByteCount full = reply.response.wire_size();
    const ByteCount cut = std::max<ByteCount>(
        1, static_cast<ByteCount>(
               static_cast<double>(full) * pending.fault.progress_fraction));
    bytes_received_ += cut;
    network_.send_bytes(server_, client_, cut,
                        [this, drop = pending.fault.drop_mid_stream,
                         on_error = std::move(pending.on_error)] {
                          if (!drop) return;  // stall: silence
                          --inflight_;
                          if (protocol_ == Protocol::H1) {
                            // Framing is broken mid-message; the whole
                            // connection is unusable. H2 loses only the
                            // stream (RST_STREAM).
                            fail();
                          }
                          if (on_error) on_error();
                          pump();
                        });
    return;
  }

  // 103 Early Hints: a ~150-byte interim response races ahead of the
  // body (it shares the downlink, but its transmission time is
  // negligible next to the full response).
  if (!reply.early_hint_urls.empty() && events_.on_hints) {
    ByteCount hint_bytes = 60;  // status line + Link header boilerplate
    for (const std::string& url : reply.early_hint_urls) {
      hint_bytes += url.size() + 24;
    }
    bytes_received_ += hint_bytes;
    network_.send_bytes(
        server_, client_, hint_bytes,
        [this, urls = std::move(reply.early_hint_urls)] {
          events_.on_hints(server_, urls);
        });
  }
  // Server pushes: H2 only. The tiny PUSH_PROMISE frames race ahead
  // (propagation-dominated), telling the client not to request those
  // targets; the pushed bodies then transfer multiplexed with the main
  // response (concurrent flows share the downlink via processor sharing).
  if (protocol_ == Protocol::H2 && !reply.pushes.empty() &&
      events_.on_push) {
    const Duration propagation = network_.one_way(server_, client_);
    for (PushedResponse& push : reply.pushes) {
      // PUSH_PROMISE frame: 9-octet frame header + promised stream id +
      // a header block announcing the request (~ :path + :method).
      const ByteCount promise_bytes = 9 + 4 + 32 + push.target.size();
      bytes_received_ += promise_bytes + push.response.wire_size();
      if (events_.on_promise) {
        network_.loop().schedule_after(
            propagation, [this, target = push.target] {
              events_.on_promise(server_, target);
            });
      }
      auto shared_push = std::make_shared<PushedResponse>(std::move(push));
      const ByteCount push_bytes =
          promise_bytes + shared_push->response.wire_size();
      network_.send_bytes(
          server_, client_, push_bytes,
          [this, shared_push] {
            events_.on_push(server_, std::move(*shared_push));
          });
    }
  }

  const ByteCount response_bytes = reply.response.wire_size();
  bytes_received_ += response_bytes;

  // Close out the timeline: Ttfb ran from exchange start to this reply;
  // everything from here to the last byte is Transfer.
  obs::PhaseTimeline timeline = pending.timeline;
  TimePoint reply_at{};
  if (network_.loop().recorder() != nullptr) {
    reply_at = network_.loop().now();
    timeline.add(obs::Phase::kTtfb, reply_at - pending.exchange_start);
  }

  auto shared_resp = std::make_shared<http::Response>(
      std::move(reply.response));
  network_.send_bytes(
      server_, client_, response_bytes,
      [this, shared_resp, reply_at, timeline,
       cb = std::move(on_response)]() mutable {
        --inflight_;
        ++requests_completed_;
        if (auto* rec = network_.loop().recorder()) {
          timeline.add(obs::Phase::kTransfer,
                       network_.loop().now() - reply_at);
          rec->record(timeline);
        }
        cb(std::move(*shared_resp));
        pump();
      });
}

}  // namespace catalyst::netsim
