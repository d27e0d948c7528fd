// Page-load measurement types (the paper's metric is OnLoad PLT).
#pragma once

#include <cstdint>

#include "http/message.h"
#include "netsim/trace.h"
#include "util/types.h"

namespace catalyst::client {

/// Outcome of one resource fetch through the browser's pipeline.
struct FetchOutcome {
  http::Response response;
  netsim::FetchSource source = netsim::FetchSource::Network;
  TimePoint start{};
  TimePoint finish{};
  /// Set by the (measurement-only) staleness audit: the bytes served from
  /// a cache differ from the origin's current content.
  bool stale = false;
  /// The fetch went to the network as a degradation fallback: the SW's
  /// map was untrustworthy or the cached body failed its integrity check.
  bool sw_fallback = false;
};

/// Where each resource of a load came from: one slot per FetchSource,
/// plus the staleness audit. A plain value type so reports can merge and
/// compare it.
struct CacheCounters {
  std::uint64_t from_network = 0;   // full downloads
  std::uint64_t from_cache = 0;     // fresh HTTP-cache hits
  std::uint64_t not_modified = 0;   // revalidated 304s
  std::uint64_t from_sw_cache = 0;  // Service-Worker cache hits
  std::uint64_t from_push = 0;      // server-push deliveries
  /// Resources served from a cache whose bytes no longer match the origin
  /// (only counted when the testbed installs the staleness audit). The
  /// paper's correctness claim: this is always 0 for CacheCatalyst's
  /// SW-served resources; status-quo caching can serve stale within TTL.
  std::uint64_t stale_served = 0;

  void add(netsim::FetchSource source) {
    switch (source) {
      case netsim::FetchSource::Network:
        ++from_network;
        break;
      case netsim::FetchSource::BrowserCache:
        ++from_cache;
        break;
      case netsim::FetchSource::NotModified:
        ++not_modified;
        break;
      case netsim::FetchSource::SwCache:
        ++from_sw_cache;
        break;
      case netsim::FetchSource::Push:
        ++from_push;
        break;
    }
  }

  void merge(const CacheCounters& other) {
    from_network += other.from_network;
    from_cache += other.from_cache;
    not_modified += other.not_modified;
    from_sw_cache += other.from_sw_cache;
    from_push += other.from_push;
    stale_served += other.stale_served;
  }

  /// Every resource outcome (stale_served overlaps the others, excluded).
  std::uint64_t total() const {
    return from_network + from_cache + not_modified + from_sw_cache +
           from_push;
  }
  /// Responses answered without a full body download.
  std::uint64_t avoided_downloads() const {
    return from_cache + not_modified + from_sw_cache + from_push;
  }

  bool operator==(const CacheCounters& other) const = default;
};

/// Fault/degradation tallies from resilient page loads. All zero on clean
/// runs — reports only serialize them when any() so zero-fault output is
/// byte-identical to builds without the fault layer.
struct FaultCounters {
  std::uint64_t timeouts = 0;                // request deadlines fired
  std::uint64_t retries = 0;                 // re-dispatched attempts
  std::uint64_t connection_failures = 0;     // detectable mid-stream errors
  std::uint64_t fallback_revalidations = 0;  // SW degraded-mode cond. GETs
  std::uint64_t failed_loads = 0;            // resources finishing with 5xx

  void merge(const FaultCounters& other) {
    timeouts += other.timeouts;
    retries += other.retries;
    connection_failures += other.connection_failures;
    fallback_revalidations += other.fallback_revalidations;
    failed_loads += other.failed_loads;
  }

  bool any() const {
    return timeouts != 0 || retries != 0 || connection_failures != 0 ||
           fallback_revalidations != 0 || failed_loads != 0;
  }

  bool operator==(const FaultCounters& other) const = default;
};

/// Byte-equivalence oracle verdicts (check::ByteOracle), one per served
/// resource. checked counts auditable serves: fresh + allowed_stale +
/// violations. All zero but unauditable when no oracle is installed —
/// reports only serialize them when any() so oracle-off output is
/// byte-identical to builds without the check layer.
struct OracleCounters {
  std::uint64_t checked = 0;
  std::uint64_t fresh = 0;          // bytes match the origin's
  std::uint64_t allowed_stale = 0;  // stale within RFC 9111 freshness
  std::uint64_t violations = 0;     // stale with no freshness excuse
  std::uint64_t poisoned_serves = 0;   // of violations: unkeyed-input bytes
  std::uint64_t cross_user_leaks = 0;  // of violations: another user's input
  /// Serves with no verdict: no oracle installed, unknown origin or path,
  /// or a non-200 status.
  std::uint64_t unauditable = 0;

  void add(netsim::ServeClass verdict) {
    switch (verdict) {
      case netsim::ServeClass::Unchecked:
        ++unauditable;
        return;
      case netsim::ServeClass::Fresh:
        ++fresh;
        break;
      case netsim::ServeClass::AllowedStale:
        ++allowed_stale;
        break;
      case netsim::ServeClass::Violation:
        ++violations;
        break;
      case netsim::ServeClass::PoisonedServe:
        ++violations;
        ++poisoned_serves;
        break;
      case netsim::ServeClass::CrossUserLeak:
        ++violations;
        ++cross_user_leaks;
        break;
    }
    ++checked;
  }

  void merge(const OracleCounters& other) {
    checked += other.checked;
    fresh += other.fresh;
    allowed_stale += other.allowed_stale;
    violations += other.violations;
    poisoned_serves += other.poisoned_serves;
    cross_user_leaks += other.cross_user_leaks;
    unauditable += other.unauditable;
  }

  bool any() const { return checked != 0; }

  bool operator==(const OracleCounters& other) const = default;
};

/// Result of one full page load.
struct PageLoadResult {
  TimePoint start{};
  TimePoint onload{};
  /// First-paint approximation: base HTML parsed and every render-blocking
  /// stylesheet known at that point loaded (paper §6 defers FCP/SI/TTI to
  /// future work; this is the FCP half).
  TimePoint first_paint{};
  /// Interactivity approximation: first paint plus all synchronous script
  /// execution finished.
  TimePoint interactive{};

  Duration plt() const { return onload - start; }
  Duration fcp() const { return first_paint - start; }
  Duration tti() const { return interactive - start; }

  std::uint32_t resources_total = 0;
  CacheCounters counters;  // one source per recorded resource

  ByteCount bytes_downloaded = 0;      // wire bytes received during load
  std::uint32_t rtts = 0;              // round trips consumed during load

  OracleCounters oracle;  // one verdict per recorded resource

  /// Negative-caching telemetry: error responses (404/410) answered from
  /// a client-side cache without contacting the origin (RFC 9111 §4).
  std::uint32_t negative_hits = 0;

  /// Simulation-engine events executed to produce this load (perf
  /// telemetry for bench/engine_hotpath; never serialized into reports).
  std::uint64_t loop_events = 0;

  /// Fault/degradation telemetry — all zero on clean runs.
  FaultCounters faults;

  netsim::TraceLog trace;
};

/// Modeled client-side compute costs. Values are deliberately small next
/// to network time (the paper's effect is a network effect) but non-zero,
/// so compute-heavy baselines (e.g. push floods) pay realistically.
struct ProcessingModel {
  Duration html_parse_per_kib = microseconds(50);
  Duration css_parse_per_kib = microseconds(20);
  Duration js_exec_per_kib = microseconds(100);
  Duration sw_interception_overhead = microseconds(200);
  Duration cache_hit_overhead = microseconds(100);

  Duration html_parse_cost(ByteCount bytes) const {
    return scale(html_parse_per_kib, bytes);
  }
  Duration css_parse_cost(ByteCount bytes) const {
    return scale(css_parse_per_kib, bytes);
  }
  Duration js_exec_cost(ByteCount bytes) const {
    return scale(js_exec_per_kib, bytes);
  }

  /// Mobile-class device: parsing and script execution run several times
  /// slower than on desktop (the regime of the paper's motivation [21-23,
  /// 30, 47, 48]).
  static ProcessingModel mobile() {
    ProcessingModel pm;
    pm.html_parse_per_kib = microseconds(200);
    pm.css_parse_per_kib = microseconds(80);
    pm.js_exec_per_kib = microseconds(450);
    pm.sw_interception_overhead = microseconds(600);
    pm.cache_hit_overhead = microseconds(300);
    return pm;
  }

 private:
  static Duration scale(Duration per_kib, ByteCount bytes) {
    return seconds_f(to_seconds(per_kib) *
                     (static_cast<double>(bytes) / 1024.0));
  }
};

}  // namespace catalyst::client
