#include "workload/adversary.h"

#include <stdexcept>

#include "http/headers.h"
#include "util/strings.h"

namespace catalyst::workload {

namespace {

/// Fraction of poisoning payloads that self-identify as a user
/// ("uid:attacker-N" — the confidentiality probe the oracle classifies as
/// cross-user-leak); the rest carry a host payload ("evil.example",
/// classified as poisoned-serve).
constexpr double kLeakPayloadFraction = 0.5;

/// Plain timing probes per strike (no payload): each is classified
/// hit/miss by elapsed virtual time against the probe-hit threshold.
constexpr int kTimingProbesPerStrike = 2;

}  // namespace

Adversary::Adversary(netsim::Network& network, edge::EdgePop& pop,
                     std::vector<std::string> target_paths,
                     AdversaryParams params, Duration hit_threshold)
    : network_(network),
      pop_(pop),
      paths_(std::move(target_paths)),
      params_(params),
      hit_threshold_(hit_threshold),
      rng_(params.seed) {
  if (paths_.empty()) {
    throw std::invalid_argument("Adversary: target_paths must be non-empty");
  }
}

netsim::Connection& Adversary::fresh_connection() {
  connections_.push_back(std::make_unique<netsim::Connection>(
      network_, kHost, pop_.host_name(), /*tls=*/true,
      netsim::Protocol::H1));
  return *connections_.back();
}

void Adversary::send_poison(const std::string& path,
                            const std::string& payload) {
  pop_.note_adversary_request();
  http::Request request = http::Request::get(path, pop_.host_name());
  request.headers.set(http::kXForwardedHost, payload);
  ++pending_poisons_;
  fresh_connection().send_request(
      std::move(request),
      [this](http::Response) {
        if (--pending_poisons_ == 0) flush_probes();
      },
      /*on_push=*/nullptr, /*on_promise=*/nullptr, /*on_hints=*/nullptr,
      // A faulted poison still releases its probes — they must never
      // stall on a lost response.
      [this]() {
        if (--pending_poisons_ == 0) flush_probes();
      });
}

void Adversary::flush_probes() {
  std::vector<std::string> probes = std::move(queued_probes_);
  queued_probes_.clear();
  for (const std::string& path : probes) send_probe(path);
}

void Adversary::send_probe(const std::string& path) {
  http::Request request = http::Request::get(path, pop_.host_name());
  const TimePoint sent = network_.loop().now();
  fresh_connection().send_request(
      std::move(request), [this, sent](http::Response) {
        const Duration elapsed = network_.loop().now() - sent;
        pop_.note_adversary_probe(elapsed <= hit_threshold_);
      });
}

void Adversary::strike() {
  ++strikes_;
  for (int i = 0; i < params_.requests_per_strike; ++i) {
    // The first request of every strike poisons the entry point — the one
    // path a subsequent victim visit is guaranteed to consume.
    const std::string& path =
        i == 0 ? paths_.front()
               : paths_[static_cast<std::size_t>(rng_.uniform_int(
                     0, static_cast<std::int64_t>(paths_.size() - 1)))];
    const bool leak = rng_.bernoulli(kLeakPayloadFraction);
    const std::string payload =
        leak ? str_format("uid:attacker-%llu",
                          static_cast<unsigned long long>(strikes_))
             : "evil.example";
    send_poison(path, payload);
  }
  // Probes check residency of what the poisons just planted, so they wait
  // for the poison responses; drawn now to keep the RNG stream fixed.
  for (int i = 0; i < kTimingProbesPerStrike; ++i) {
    queued_probes_.push_back(paths_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(paths_.size() - 1)))]);
  }
  if (pending_poisons_ == 0) flush_probes();
}

}  // namespace catalyst::workload
