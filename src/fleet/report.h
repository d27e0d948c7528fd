// Mergeable fleet-wide aggregates.
//
// Every shard produces one FleetReport for its batch of users; the runner
// folds them together in canonical shard order. All fields are either
// plain sums (order-independent) or Summary sample lists (merged in
// canonical order so floating-point accumulation is bit-identical to a
// single-threaded run). serialize() is the byte-stable form the
// determinism tests and the `fleetsim --json` output compare.
#pragma once

#include <map>
#include <string>

#include "client/metrics.h"
#include "edge/pop.h"
#include "obs/recorder.h"
#include "obs/selfprof.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/types.h"

namespace catalyst::fleet {

/// One edge PoP's shared-cache tally over the whole run (treatment arm
/// only), or the sum of several.
using EdgePopReport = edge::EdgePopStats;

struct FleetReport {
  std::uint64_t users = 0;
  std::uint64_t visits = 0;    // all measured page loads (treatment)
  std::uint64_t revisits = 0;  // visits beyond each user's cold load

  /// Fetch outcomes across all treatment revisits (cold loads excluded:
  /// they are all-network by construction and would drown the signal the
  /// related work measures — what happens when a cache is warm).
  client::CacheCounters counters;

  /// Fault/degradation tallies across ALL treatment visits (cold loads
  /// included — faults do not spare them). Serialized only when non-zero
  /// so clean-run reports stay byte-identical to pre-fault builds.
  client::FaultCounters faults;

  /// Byte-equivalence oracle tallies across ALL treatment visits (cold
  /// loads audited too — a wrong byte is wrong on any visit). Serialized
  /// only when any() so oracle-off reports stay byte-identical.
  client::OracleCounters oracle;

  /// Client-side negative-cache hits (404/410 answered from the browser
  /// HTTP cache or the SW) across all treatment visits. Serialized only
  /// when non-zero so negative-caching-off reports stay byte-identical.
  std::uint64_t negative_hits = 0;

  /// Recorded page-load traces (check::trace_to_jsonl), keyed by user id:
  /// only users below FleetParams::trace_users record. A std::map keyed by
  /// user id merges canonically, so the concatenation is bit-identical for
  /// any --threads/--shard-size. Deliberately NOT part of to_json()/
  /// serialize(): traces export via traces_jsonl() (fleetsim --trace-out).
  std::map<std::uint64_t, std::string> traces;

  /// Per-PoP edge tier telemetry, keyed by PoP id. Empty on edge-disabled
  /// runs and then serialized to nothing, keeping those reports
  /// byte-identical to pre-edge builds.
  std::map<int, EdgePopReport> edge_pops;

  /// Simulation-engine events executed across every replayed visit (both
  /// arms). Perf telemetry for bench/engine_hotpath: merged, but
  /// deliberately NOT serialized, so reports stay byte-identical across
  /// builds with different engine internals.
  std::uint64_t events_executed = 0;

  /// Per-phase virtual-time latency breakdowns (FleetParams::breakdown),
  /// one per strategy arm. Integer-bucket histograms merge exactly, so
  /// the "phases" JSON section is bit-identical for any --threads; empty
  /// (breakdown off) serializes to nothing, keeping default reports
  /// byte-identical to pre-obs builds.
  obs::PhaseBreakdown phases;           // treatment arm
  obs::PhaseBreakdown baseline_phases;  // baseline arm

  /// Wall-clock self-profile counters captured around each shard's run
  /// (obs::tls_prof deltas). Merged at shard join, deliberately NOT
  /// serialized — wall-clock numbers must never touch byte-stable
  /// reports; fleetsim --self-profile prints them to stderr.
  obs::ProfCounters prof;

  /// Wire totals across all treatment visits, and the same users replayed
  /// under the baseline strategy (zero when no baseline was run).
  ByteCount bytes_on_wire = 0;
  ByteCount baseline_bytes_on_wire = 0;
  std::uint64_t rtts = 0;
  std::uint64_t baseline_rtts = 0;

  /// Revisit PLTs (ms) under the treatment strategy.
  Summary plt_ms;
  /// Per-revisit PLT reduction vs baseline (%), Figure-3 style.
  Summary plt_reduction_pct;
  /// Per-user mean PLT reduction (%): one sample per user, the per-user
  /// distribution Ma et al. report for redundant-transfer mitigation.
  Summary per_user_plt_reduction_pct;
  /// Per-user cache answer rate on revisits (% of resources served
  /// without a full download).
  Summary per_user_hit_rate_pct;

  /// Round trips / bytes the treatment avoided relative to baseline
  /// (negative when the treatment costs more, e.g. push floods).
  std::int64_t rtts_saved() const {
    return static_cast<std::int64_t>(baseline_rtts) -
           static_cast<std::int64_t>(rtts);
  }
  std::int64_t bytes_saved() const {
    return static_cast<std::int64_t>(baseline_bytes_on_wire) -
           static_cast<std::int64_t>(bytes_on_wire);
  }

  /// Folds `other` into this report. Merging shard reports in ascending
  /// shard order reproduces the single-threaded accumulation exactly.
  void merge(const FleetReport& other);

  /// Stable JSON document (sorted keys, fixed stat set per Summary).
  Json to_json() const;

  /// Canonical byte-stable serialization of to_json().
  std::string serialize() const;

  /// All recorded traces concatenated in ascending user-id order (one
  /// replayable JSONL stream; empty when tracing was off).
  std::string traces_jsonl() const;

  /// Human-readable console table.
  std::string render_table(const std::string& title) const;
};

}  // namespace catalyst::fleet
