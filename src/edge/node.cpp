#include "edge/node.h"

#include <utility>

#include "http/conditional.h"
#include "http/date.h"
#include "obs/recorder.h"
#include "obs/selfprof.h"

namespace catalyst::edge {

namespace {

/// Modeled per-request edge compute (lookup + response assembly).
constexpr Duration kProcessingDelay = microseconds(300);

}  // namespace

EdgeNode::EdgeNode(EdgePop& pop, netsim::Network& network,
                   std::string origin_host)
    : pop_(pop), network_(network), origin_host_(std::move(origin_host)) {
  if (pop_.config().flash.enabled()) {
    aio_ = std::make_unique<io::AioEngine>(
        network_.loop(), pop_.config().flash.device, pop_.flash_rng(),
        pop_.aio_stats());
  }
  network_.host(pop_.host_name())
      .set_handler([this](const http::Request& request,
                          std::function<void(netsim::ServerReply)> respond) {
        handle(request, std::move(respond));
      });
}

std::string EdgeNode::cache_key(const http::Request& request) const {
  // Cache keys follow static-handler semantics: the query string does not
  // select a different representation.
  std::string key = origin_host_ + request.path();
  if (!pop_.config().vulnerable_keying) {
    if (const auto xfh = request.headers.get(http::kXForwardedHost)) {
      key += "|xfh=";
      key += *xfh;
    }
  }
  return key;
}

http::Request EdgeNode::build_upstream(const http::Request& client) const {
  http::Request upstream = http::Request::get(client.target, origin_host_);
  if (const auto xfh = client.headers.get(http::kXForwardedHost)) {
    upstream.headers.set(http::kXForwardedHost, *xfh);
  }
  return upstream;
}

void EdgeNode::handle(const http::Request& request,
                      std::function<void(netsim::ServerReply)> respond) {
  const TimePoint now = network_.loop().now();
  obs::count(obs::Sub::kEdge);
  obs::ScopedTimer prof_timer(obs::Sub::kEdge);
  const std::string key = cache_key(request);
  pop_.note_request(key);

  const EdgeLookupResult found = pop_.lookup(key, now);
  if (found.decision == EdgeLookupDecision::Fresh) {
    reply_to_waiter(Waiter{request, std::move(respond), now},
                    found.entry->response, Served::Hit);
    return;
  }

  // Miss or stale: both need a fetch. Coalesce with any fill already in
  // flight for this key — that fetch's answer serves everyone, whether it
  // is coming from the origin or from the flash device.
  if (const auto pending = inflight_.find(key); pending != inflight_.end()) {
    Fill& fill = pending->second;
    if (fill.flash_read) {
      pop_.note_flash_coalesced();
    } else {
      pop_.note_coalesced();
    }
    fill.waiters.push_back(Waiter{request, std::move(respond), now});
    return;
  }

  // RAM miss with the key resident in flash: read it asynchronously. The
  // fill parks the waiters until the device completes; the completion
  // re-classifies the record (it may have gone stale — or away — while
  // queued) and either serves it or converts to an origin fetch.
  if (found.decision == EdgeLookupDecision::Miss && aio_ != nullptr &&
      pop_.flash_has(key)) {
    Fill fill;
    fill.request_time = now;
    fill.flash_read = true;
    fill.waiters.push_back(Waiter{request, std::move(respond), now});
    inflight_.insert_or_assign(key, std::move(fill));
    aio_->submit_read(key, pop_.flash_entry_cost(key),
                      [this, key]() { on_flash_read(key); });
    return;
  }

  Fill fill;
  fill.request_time = now;
  fill.waiters.push_back(Waiter{request, std::move(respond), now});

  // The upstream request is built fresh: client conditionals must not leak
  // upstream (a 304 against the *client's* validator would leave the edge
  // with nothing to serve other waiters). On the stale path the edge sends
  // its own stored validators instead.
  http::Request upstream = build_upstream(request);
  if (found.decision == EdgeLookupDecision::Stale) {
    http::add_validators(upstream, found.entry->response);
  }

  inflight_.insert_or_assign(key, std::move(fill));
  launch_fetch(key, std::move(upstream));
}

void EdgeNode::on_flash_read(const std::string& key) {
  const TimePoint now = network_.loop().now();
  const auto it = inflight_.find(key);
  if (it == inflight_.end() || !it->second.flash_read) return;
  Fill* pending = &it->second;

  const FlashReadResult rr = pop_.complete_flash_read(key, now, aio_.get());
  if (rr.outcome == FlashReadOutcome::Fresh) {
    Fill fill = std::move(*pending);
    inflight_.erase(key);
    for (const Waiter& w : fill.waiters) {
      reply_to_waiter(w, rr.entry->response, Served::FlashHit);
    }
    return;
  }

  // Stale, unvalidatable, or vanished while queued: the origin has to
  // answer after all. Convert the fill in place — keeping every parked
  // waiter — into an ordinary origin fetch, conditional when the flash
  // record still has validators to offer.
  pending->flash_read = false;
  pending->request_time = now;
  http::Request upstream =
      build_upstream(pending->waiters.front().request);
  if (rr.outcome == FlashReadOutcome::Stale) {
    http::add_validators(upstream, rr.entry->response);
  }
  launch_fetch(key, std::move(upstream));
}

void EdgeNode::launch_fetch(const std::string& key, http::Request upstream) {
  pop_.note_origin_fetch();
  origin_connection().send_request(
      std::move(upstream),
      [this, key](http::Response response) {
        on_origin_response(key, std::move(response));
      },
      [this, key]() { on_origin_error(key); });
}

void EdgeNode::on_origin_response(const std::string& key,
                                  http::Response response) {
  const TimePoint now = network_.loop().now();
  pop_.note_origin_response(response.wire_size());
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  Fill* pending = &it->second;

  if (response.status == http::Status::NotModified) {
    pop_.note_origin_not_modified();
    if (cache::CacheEntry* entry = pop_.refresh_not_modified(
            key, response, pending->request_time, now)) {
      Fill fill = std::move(*pending);
      inflight_.erase(key);
      for (const Waiter& w : fill.waiters) {
        reply_to_waiter(w, entry->response, Served::Revalidated);
      }
      return;
    }
    // The entry was evicted while its conditional was in flight: the 304
    // refers to bytes the edge no longer holds. Refetch in full, keeping
    // the waiter list.
    if (!pending->retried) {
      pending->retried = true;
      pending->request_time = now;
      launch_fetch(key,
                   build_upstream(pending->waiters.front().request));
      return;
    }
    // An unconditional fetch answered 304 — upstream is misbehaving.
    on_origin_error(key);
    return;
  }

  Fill fill = std::move(*pending);
  inflight_.erase(key);
  // admit_and_store applies shared-cache policy (no-store/private/
  // uncacheable status) and TinyLFU admission; waiters are served from the
  // origin bytes either way. 5xx fills are guarded explicitly: a transient
  // upstream failure must reach the coalesced waiters but never become
  // cache content in RAM or flash (is_cacheable_status would reject them
  // too, but negative caching loosened storability — keep the invariant
  // visible at the one place a fill is admitted).
  if (http::code(response.status) < 500) {
    pop_.admit_and_store(key, response, fill.request_time, now, aio_.get());
  }
  for (const Waiter& w : fill.waiters) {
    reply_to_waiter(w, response, Served::Miss);
  }
}

void EdgeNode::on_origin_error(const std::string& key) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  Fill fill = std::move(it->second);
  inflight_.erase(key);
  pop_.note_origin_error();
  for (const Waiter& w : fill.waiters) {
    pop_.note_miss();
    http::Response resp = http::Response::make(http::Status::BadGateway);
    resp.body = "edge: origin unreachable";
    resp.finalize(network_.loop().now());
    netsim::ServerReply reply;
    reply.response = std::move(resp);
    network_.loop().schedule_after(
        kProcessingDelay,
        [respond = w.respond, reply = std::move(reply)]() mutable {
          respond(std::move(reply));
        });
  }
}

void EdgeNode::reply_to_waiter(const Waiter& waiter,
                               const http::Response& source, Served served) {
  // Per-waiter conditional: a client revalidating a representation the
  // edge holds gets its 304 here, never touching the origin.
  const std::optional<http::Etag> etag = source.etag();
  std::optional<TimePoint> last_modified;
  if (const auto lm = source.headers.get(http::kLastModified)) {
    last_modified = http::parse_http_date(*lm);
  }
  http::ConditionalOutcome outcome = http::ConditionalOutcome::NotConditional;
  if (etag) {
    outcome = http::evaluate_conditional(waiter.request, *etag,
                                         last_modified);
  }

  http::Response reply;
  if (outcome == http::ConditionalOutcome::NotModified) {
    reply = http::Response::make(http::Status::NotModified);
    // Forward the stored Date rather than stamping a new one: downstream
    // caches compute apparent age from it, which is how resident time at
    // the edge stays visible without an Age header.
    for (const auto& field : source.headers.fields()) {
      if (carried_on_304(field.name)) {
        reply.headers.set(field.name, field.value);
      }
    }
  } else {
    reply = source;
  }

  switch (served) {
    case Served::Hit:
      pop_.note_hit(reply.wire_size());
      break;
    case Served::FlashHit:
      pop_.note_flash_hit(reply.wire_size());
      break;
    case Served::Revalidated:
      pop_.note_revalidated_hit(reply.wire_size());
      break;
    case Served::Miss:
      pop_.note_miss();
      break;
  }

  if (auto* rec = network_.loop().recorder()) {
    // Server-side decomposition of the client's Ttfb: PoP arrival to
    // reply dispatch (including the processing delay about to be paid).
    rec->record(obs::Phase::kEdgeLookup,
                network_.loop().now() + kProcessingDelay -
                    waiter.arrival);
  }

  netsim::ServerReply server_reply;
  server_reply.response = std::move(reply);
  network_.loop().schedule_after(
      kProcessingDelay,
      [respond = waiter.respond,
       server_reply = std::move(server_reply)]() mutable {
        respond(std::move(server_reply));
      });
}

netsim::Connection& EdgeNode::origin_connection() {
  if (origin_conn_ && origin_conn_->broken()) {
    // Keep broken connections alive until the loop drains: their scheduled
    // callbacks still capture the object.
    graveyard_.push_back(std::move(origin_conn_));
  }
  if (!origin_conn_) {
    // No server-event handlers: origin pushes die at the edge (see
    // header comment).
    origin_conn_ = std::make_unique<netsim::Connection>(
        network_, pop_.host_name(), origin_host_, /*tls=*/true,
        netsim::Protocol::H2);
  }
  return *origin_conn_;
}

}  // namespace catalyst::edge
