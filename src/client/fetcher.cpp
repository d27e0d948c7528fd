#include "client/fetcher.h"

#include "obs/recorder.h"

namespace catalyst::client {

namespace {

/// Per-request deadline. Silent faults (stalled transfers, dark
/// origins) raise no error; this timer is the only recovery path.
constexpr Duration kRequestTimeout = seconds(15);

/// Retry budget per request after the first attempt. Only idempotent GETs
/// are retried; anything else fails straight to a 504.
constexpr int kMaxRetries = 2;

/// Exponential backoff between attempts: this base, doubling per retry,
/// capped at five seconds.
constexpr Duration kBackoffBase = milliseconds(200);
constexpr double kBackoffMultiplier = 2.0;
constexpr Duration kBackoffCap = seconds(5);

}  // namespace

/// One logical request moving through the resilient path. Attempt tokens
/// guard every callback: a late response, error, or deadline from an
/// abandoned attempt compares its captured token against `attempt` and
/// bails, so exactly one outcome settles the request.
struct Fetcher::PendingFetch {
  std::string origin;
  http::Request request;  // kept so retries resend the original
  ResponseCallback on_response;
  int attempt = 1;
  int retries_left = 0;
  bool settled = false;
  netsim::Connection* conn = nullptr;  // carries the current attempt
  netsim::EventId deadline = 0;
};

Fetcher::Fetcher(netsim::Network& network, std::string client_host,
                 FetcherConfig config)
    : network_(network),
      client_host_(std::move(client_host)),
      config_(config) {}

netsim::Connection& Fetcher::pick_connection(
    const std::string& origin_host) {
  auto& pool = pools_[origin_host];
  const std::size_t limit = config_.protocol == netsim::Protocol::H2
                                ? 1
                                : config_.max_connections_per_origin;
  // Prefer an idle connection; otherwise open a new one while under the
  // limit; otherwise queue on the least-loaded. Broken connections stay
  // in the pool (scheduled callbacks still reference them; close_all
  // reaps them between visits) but count toward nothing.
  netsim::Connection* least_loaded = nullptr;
  std::size_t live = 0;
  for (auto& conn : pool) {
    if (conn->broken()) continue;
    ++live;
    if (conn->pending() == 0) return *conn;
    if (least_loaded == nullptr ||
        conn->pending() < least_loaded->pending()) {
      least_loaded = conn.get();
    }
  }
  if (live < limit) {
    // Only the first-ever connection to an origin resolves DNS; later
    // ones (and later visits within the session) use the resolver cache.
    const bool resolve_dns = dns_resolved_.insert(origin_host).second;
    pool.push_back(std::make_unique<netsim::Connection>(
        network_, client_host_, origin_host, config_.tls,
        config_.protocol, resolve_dns, events_));
    return *pool.back();
  }
  return *least_loaded;
}

void Fetcher::fetch(const std::string& origin_host, http::Request request,
                    ResponseCallback on_response) {
  if (config_.resilient) {
    auto pending = std::make_shared<PendingFetch>();
    pending->origin = origin_host;
    pending->request = std::move(request);
    pending->on_response = std::move(on_response);
    pending->retries_left = kMaxRetries;
    dispatch(pending);
    return;
  }
  pick_connection(origin_host)
      .send_request(std::move(request), std::move(on_response));
}

void Fetcher::dispatch(const std::shared_ptr<PendingFetch>& fetch) {
  netsim::Connection& conn = pick_connection(fetch->origin);
  fetch->conn = &conn;
  const int attempt = fetch->attempt;
  auto self = fetch;
  conn.send_request(
      fetch->request,
      [this, self, attempt](http::Response response) {
        if (self->settled || self->attempt != attempt) return;
        self->settled = true;
        network_.loop().cancel(self->deadline);
        self->on_response(std::move(response));
      },
      [this, self, attempt] {
        if (self->settled || self->attempt != attempt) return;
        ++faults_.connection_failures;
        retry_or_fail(self);
      });
  fetch->deadline = network_.loop().schedule_after(
      kRequestTimeout, [this, self, attempt] {
        if (self->settled || self->attempt != attempt) return;
        ++faults_.timeouts;
        // The connection carrying the attempt is wedged (stall or
        // dark origin): break it so queued requests re-route and
        // the pool opens a replacement.
        if (self->conn != nullptr) self->conn->fail();
        retry_or_fail(self);
      });
}

void Fetcher::retry_or_fail(const std::shared_ptr<PendingFetch>& fetch) {
  ++fetch->attempt;  // invalidate any callbacks from the dead attempt
  network_.loop().cancel(fetch->deadline);
  if (fetch->request.method != http::Method::Get || fetch->retries_left <= 0) {
    // Budget exhausted (or non-idempotent request): settle with a
    // synthesized 504 so the page load completes and records the failure
    // instead of hanging.
    fetch->settled = true;
    http::Response response = http::Response::make(http::Status::GatewayTimeout);
    response.finalize(network_.loop().now());
    network_.loop().schedule_after(
        Duration::zero(), [cb = std::move(fetch->on_response),
                           resp = std::move(response)]() mutable {
          cb(std::move(resp));
        });
    return;
  }
  --fetch->retries_left;
  ++faults_.retries;
  const int retries_done = kMaxRetries - fetch->retries_left;
  double scale = 1.0;
  for (int i = 1; i < retries_done; ++i) scale *= kBackoffMultiplier;
  Duration delay = seconds_f(to_seconds(kBackoffBase) * scale);
  if (delay > kBackoffCap) delay = kBackoffCap;
  if (auto* rec = network_.loop().recorder()) {
    rec->record(obs::Phase::kBackoff, delay);
  }
  auto self = fetch;
  network_.loop().schedule_after(delay, [this, self] {
    if (self->settled) return;
    dispatch(self);
  });
}

void Fetcher::close_all() {
  pools_.clear();
  faults_ = FaultCounters{};
}

int Fetcher::total_rtts() const {
  int total = 0;
  for (const auto& [host, pool] : pools_) {
    for (const auto& conn : pool) total += conn->rtts_consumed();
  }
  return total;
}

ByteCount Fetcher::total_bytes_received() const {
  ByteCount total = 0;
  for (const auto& [host, pool] : pools_) {
    for (const auto& conn : pool) total += conn->bytes_received();
  }
  return total;
}

std::size_t Fetcher::connection_count() const {
  std::size_t total = 0;
  for (const auto& [host, pool] : pools_) total += pool.size();
  return total;
}

}  // namespace catalyst::client
