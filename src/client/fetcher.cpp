#include "client/fetcher.h"

#include "obs/recorder.h"

namespace catalyst::client {

namespace {

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
        config_.protocol, resolve_dns));
    return *pool.back();
  }
  return *least_loaded;
}

void Fetcher::fetch(const std::string& origin_host, http::Request request,
                    ResponseCallback on_response) {
  if (config_.resilience.enabled) {
    auto pending = std::make_shared<PendingFetch>();
    pending->origin = origin_host;
    pending->request = std::move(request);
    pending->on_response = std::move(on_response);
    pending->retries_left = config_.resilience.max_retries;
    dispatch(pending);
    return;
  }
  netsim::Connection& conn = pick_connection(origin_host);
  netsim::Connection::PushCallback push_cb;
  if (push_handler_) {
    push_cb = [this, origin_host](netsim::PushedResponse push) {
      if (push_handler_) push_handler_(origin_host, std::move(push));
    };
  }
  netsim::Connection::PromiseCallback promise_cb;
  if (promise_handler_) {
    promise_cb = [this, origin_host](const std::string& target) {
      if (promise_handler_) promise_handler_(origin_host, target);
    };
  }
  netsim::Connection::HintsCallback hints_cb;
  if (hints_handler_) {
    hints_cb = [this, origin_host](const std::vector<std::string>& urls) {
      if (hints_handler_) hints_handler_(origin_host, urls);
    };
  }
  conn.send_request(std::move(request), std::move(on_response),
                    std::move(push_cb), std::move(promise_cb),
                    std::move(hints_cb));
}

void Fetcher::dispatch(const std::shared_ptr<PendingFetch>& fetch) {
  netsim::Connection& conn = pick_connection(fetch->origin);
  fetch->conn = &conn;
  const int attempt = fetch->attempt;

  netsim::Connection::PushCallback push_cb;
  if (push_handler_) {
    push_cb = [this, origin = fetch->origin](netsim::PushedResponse push) {
      if (push_handler_) push_handler_(origin, std::move(push));
    };
  }
  netsim::Connection::PromiseCallback promise_cb;
  if (promise_handler_) {
    promise_cb = [this, origin = fetch->origin](const std::string& target) {
      if (promise_handler_) promise_handler_(origin, target);
    };
  }
  netsim::Connection::HintsCallback hints_cb;
  if (hints_handler_) {
    hints_cb = [this,
                origin = fetch->origin](const std::vector<std::string>& urls) {
      if (hints_handler_) hints_handler_(origin, urls);
    };
  }

  auto self = fetch;
  conn.send_request(
      fetch->request,
      [this, self, attempt](http::Response response) {
        if (self->settled || self->attempt != attempt) return;
        self->settled = true;
        network_.loop().cancel(self->deadline);
        self->on_response(std::move(response));
      },
      std::move(push_cb), std::move(promise_cb), std::move(hints_cb),
      [this, self, attempt] {
        if (self->settled || self->attempt != attempt) return;
        ++faults_.connection_failures;
        retry_or_fail(self);
      });
  fetch->deadline = network_.loop().schedule_after(
      config_.resilience.request_timeout, [this, self, attempt] {
        if (self->settled || self->attempt != attempt) return;
        ++faults_.timeouts;
        // The connection carrying the attempt is wedged (stall or
        // blackholed origin): break it so queued requests re-route and
        // the pool opens a replacement.
        if (self->conn != nullptr) self->conn->fail();
        retry_or_fail(self);
      });
}

void Fetcher::retry_or_fail(const std::shared_ptr<PendingFetch>& fetch) {
  ++fetch->attempt;  // invalidate any callbacks from the dead attempt
  network_.loop().cancel(fetch->deadline);
  const ResilienceConfig& r = config_.resilience;
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
  const int retries_done = r.max_retries - fetch->retries_left;
  double scale = 1.0;
  for (int i = 1; i < retries_done; ++i) scale *= kBackoffMultiplier;
  Duration delay = seconds_f(to_seconds(r.backoff_base) * scale);
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
