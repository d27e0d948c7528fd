// The strategies compared in the evaluation: the paper's CacheCatalyst,
// the status quo, and the related-work baselines of §5.
#pragma once

#include <optional>
#include <string_view>

#include "cache/freshness.h"
#include "netsim/transport.h"
#include "util/types.h"
#include "workload/adversary.h"

namespace catalyst::edge {
class EdgePop;
}  // namespace catalyst::edge

namespace catalyst::obs {
class Recorder;
}  // namespace catalyst::obs

namespace catalyst::core {

enum class StrategyKind {
  /// Status-quo HTTP caching: max-age / no-cache / no-store honored,
  /// conditional GETs for stale entries.
  Baseline,
  /// CacheCatalyst: X-Etag-Config map + Service Worker (static + CSS
  /// closure coverage — the paper's implemented scope).
  Catalyst,
  /// CacheCatalyst + session learning (paper §6 extension: covers
  /// JS-discovered resources on revisits).
  CatalystLearned,
  /// HTTP/2 Server Push, push-everything policy.
  PushAll,
  /// HTTP/2 Server Push, push what this session fetched last visit.
  PushLearned,
  /// HTTP/2 Server Push guided by a client Cache-Digest (bloom filter of
  /// cached paths) — the Cache-Digest proposal this paper's idea refines.
  PushDigest,
  /// 103 Early Hints: the server announces the static link closure ahead
  /// of the HTML body; the client preloads through its normal cache
  /// semantics (the deployed alternative to both push and catalyst).
  EarlyHints,
  /// Remote dependency resolution proxy (Parcel/Nutshell-style).
  RdrProxy,
  /// Perfect-knowledge lower bound: zero-cost validation of every cached
  /// entry.
  Oracle,
};

std::string_view to_string(StrategyKind kind);

struct StrategyOptions {
  /// Disable the CSS closure in the catalyst map (ablation: HTML-only
  /// scan, stylesheets' fonts/images left uncovered).
  bool catalyst_css_closure = true;

  /// Disable server-side scan memoization (ablation: pay the DOM scan on
  /// every serve).
  bool catalyst_memoize = true;

  /// Override the browser's transport (e.g. run baseline/catalyst over
  /// HTTP/2 multiplexing instead of 6 × HTTP/1.1). Push strategies ignore
  /// this (they require H2).
  std::optional<netsim::Protocol> browser_protocol;

  /// Model a mobile-class client: slower parse/execute (the paper's
  /// motivating environment).
  bool mobile_client = false;

  /// DNS lookup delay paid on the first connection to each origin.
  Duration dns_lookup = Duration::zero();

  /// Shared edge PoP fronting the main origin (non-owning; nullptr — the
  /// default — means no edge tier and the topology is untouched). The PoP
  /// outlives the testbed: fleet replay binds the same PoP into every
  /// testbed of the users mapped to it. Ignored for RdrProxy, whose proxy
  /// already terminates the page near the origin.
  edge::EdgePop* edge_pop = nullptr;

  /// RTT between an edge PoP and the origin (PoPs sit in well-peered
  /// exchanges, but further out than the RDR cloud proxy).
  Duration edge_origin_rtt = milliseconds(30);

  /// Install the byte-equivalence oracle (check::ByteOracle): every serve
  /// a page load consumes is audited against the origin's ground-truth
  /// content at fetch time. Measurement-only; off by default so existing
  /// runs stay byte-identical.
  bool byte_oracle = false;

  /// StaleServeStrategy mutation for oracle self-tests: the browser treats
  /// every cached entry as fresh, skipping required revalidations. Must be
  /// caught by the oracle; never set outside tests/difftest --mutate.
  bool mutate_stale_serve = false;

  /// Client-side negative caching policy (RFC 9111 §4): bounds under which
  /// the browser's HTTP cache and the Catalyst SW may reuse stored 404/410
  /// responses. Disabled by default — errors are never cached and runs
  /// stay byte-identical.
  cache::NegativePolicy negative_cache;

  /// Per-request latency phase recorder (obs::Recorder, non-owning like
  /// edge_pop; nullptr — the default — records nothing). make_testbed
  /// attaches it to the testbed's EventLoop; every instrumented subsystem
  /// reaches it from there. Pure observation on the virtual clock: wiring
  /// a recorder never changes simulation outcomes.
  obs::Recorder* phase_recorder = nullptr;

  /// Scripted attacker (workload::Adversary): poisoning requests with
  /// unkeyed X-Forwarded-Host payloads plus cache-timing probes against
  /// the edge PoP. Requires edge_pop; when enabled the origin also
  /// reflects X-Forwarded-Host into bodies (the vulnerable-origin half of
  /// the attack). Off by default — topology and traffic are untouched.
  workload::AdversaryParams adversary;
};

}  // namespace catalyst::core
