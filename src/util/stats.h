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

}  // namespace catalyst
