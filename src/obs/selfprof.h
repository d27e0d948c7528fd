// Wall-clock self-profile: where does the *simulator's* CPU time go?
//
// Two layers, both thread-local so the hot path never touches shared
// state:
//
//  * op counters — always on. One thread-local increment per dispatched
//    event / exchange / fetch / edge request / flash op / generated content
//    version; the cost is a TLS load and an add, which is what the <3%
//    engine_hotpath overhead gate budgets for.
//  * exclusive cycle timers — off by default, enabled process-wide with
//    set_timing(true) (fleetsim --self-profile, engine_hotpath
//    --self-profile). A ScopedTimer charges elapsed wall time to the
//    innermost open subsystem scope only (entering a nested scope first
//    charges the parent for the segment so far), so shares sum to ~100%
//    of instrumented time instead of double-counting nesting.
//
// Shards snapshot the thread-local counters around their run and publish
// the delta through FleetReport::prof (merged at shard join, deliberately
// never serialized — wall-clock numbers must not touch byte-stable
// reports).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.h"

namespace catalyst::obs {

enum class Sub : std::uint8_t {
  kLoop,       // EventLoop dispatch
  kTransport,  // Connection exchanges
  kClient,     // Browser fetch pipeline
  kSw,         // Service-Worker interceptions
  kEdge,       // edge-PoP request handling
  kFlash,      // AioEngine flash ops
  kFleet,      // shard user replay
  kContent,    // origin content versions generated and digested
};

inline constexpr std::size_t kSubCount = 8;

inline constexpr std::array<Sub, kSubCount> kAllSubs = {
    Sub::kLoop, Sub::kTransport, Sub::kClient, Sub::kSw,
    Sub::kEdge, Sub::kFlash,     Sub::kFleet,  Sub::kContent,
};

constexpr std::size_t sub_index(Sub s) { return static_cast<std::size_t>(s); }

constexpr std::string_view to_string(Sub s) {
  switch (s) {
    case Sub::kLoop: return "loop";
    case Sub::kTransport: return "transport";
    case Sub::kClient: return "client";
    case Sub::kSw: return "sw";
    case Sub::kEdge: return "edge";
    case Sub::kFlash: return "flash";
    case Sub::kFleet: return "fleet";
    case Sub::kContent: return "content";
  }
  return "unknown";
}

/// Plain mergeable value type: per-subsystem op counts and exclusive
/// wall-clock nanoseconds (zero unless timing was enabled).
struct ProfCounters {
  std::array<std::uint64_t, kSubCount> ops{};
  std::array<std::uint64_t, kSubCount> ns{};

  void merge(const ProfCounters& other);

  /// Counters accumulated since `since` (element-wise subtraction).
  ProfCounters delta(const ProfCounters& since) const;

  std::uint64_t total_ns() const;

  /// Multi-line human table (ops, ops/sec over `wall_s`, exclusive cpu
  /// share) for stderr emission.
  std::string render_table(double wall_s) const;

  /// {"loop": {"ops": N, "cpu_ms": M}, ...} for bench JSON output.
  Json to_json(double wall_s) const;

  bool operator==(const ProfCounters& other) const = default;
};

/// This thread's live counters.
ProfCounters& tls_prof();

/// Always-on op tally; the hot-path instrumentation primitive.
inline void count(Sub s) { ++tls_prof().ops[sub_index(s)]; }

/// Process-wide switch for the wall-clock timers. Flip before running a
/// workload; toggling inside an open ScopedTimer scope is unsupported.
void set_timing(bool enabled);
bool timing_enabled();

/// RAII exclusive-attribution timer. No-op (one relaxed atomic load) when
/// timing is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Sub sub);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Sub prev_{};
  bool active_ = false;
};

}  // namespace catalyst::obs
