// Descriptive statistics for experiment aggregation.
//
// Figure 3 reports *average* PLT reduction over sites and revisit delays;
// we additionally report medians, percentiles and 95% confidence intervals
// so the benches can show how tight the averages are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace catalyst {

/// Accumulates samples; computes summary statistics on demand.
class Summary {
 public:
  void add(double x);

  /// Appends all of `other`'s samples (in their insertion order), so that
  /// merging per-shard summaries in a canonical order yields exactly the
  /// sample sequence a single-threaded accumulation would have produced.
  void merge(const Summary& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double stddev() const;
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_halfwidth() const;
  double median() const;
  /// Linear-interpolation percentile, p in [0, 100].
  double percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Fixed-bin axis over [lo, hi): maps a sample to a clamped bin index.
/// obs::PhaseHistogram applies it in log10 space.
class BinAxis {
 public:
  /// Throws std::invalid_argument on zero bins or hi <= lo.
  BinAxis(double lo, double hi, std::size_t bins);

  std::size_t bins() const { return bins_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Bin holding `x`; out-of-range samples clamp to the first/last bin.
  std::size_t index(double x) const;

  /// Inclusive lower / exclusive upper edge of `bin` (unclamped linear
  /// interpolation of the range).
  double lower_edge(std::size_t bin) const;
  double upper_edge(std::size_t bin) const { return lower_edge(bin + 1); }

  bool operator==(const BinAxis& other) const = default;

 private:
  double lo_;
  double hi_;
  std::size_t bins_;
};

/// Per-visit fetch-outcome tallies (one slot per FetchSource, plus the
/// staleness audit). A plain value type so reports can merge and compare
/// them.
struct CacheCounters {
  std::uint64_t from_network = 0;   // full downloads
  std::uint64_t from_cache = 0;     // fresh HTTP-cache hits
  std::uint64_t not_modified = 0;   // revalidated 304s
  std::uint64_t from_sw_cache = 0;  // Service-Worker cache hits
  std::uint64_t from_push = 0;      // server-push deliveries
  std::uint64_t stale_served = 0;   // audit: cache bytes != origin bytes

  void merge(const CacheCounters& other);

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

  void merge(const FaultCounters& other);

  bool any() const {
    return timeouts != 0 || retries != 0 || connection_failures != 0 ||
           fallback_revalidations != 0 || failed_loads != 0;
  }

  bool operator==(const FaultCounters& other) const = default;
};

/// Byte-equivalence oracle tallies (check::ByteOracle verdicts aggregated
/// across page loads). All zero when no oracle is installed — reports only
/// serialize them when any() so oracle-off output is byte-identical to
/// builds without the check layer.
struct OracleCounters {
  std::uint64_t checked = 0;        // auditable serves (fresh+stale+viol)
  std::uint64_t allowed_stale = 0;  // stale within RFC 9111 freshness
  std::uint64_t violations = 0;     // stale with no freshness excuse
  std::uint64_t poisoned_serves = 0;   // of violations: unkeyed-input bytes
  std::uint64_t cross_user_leaks = 0;  // of violations: another user's input

  void merge(const OracleCounters& other);

  bool any() const { return checked != 0; }

  bool operator==(const OracleCounters& other) const = default;
};

}  // namespace catalyst
