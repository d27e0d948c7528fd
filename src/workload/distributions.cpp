#include "workload/distributions.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

namespace catalyst::workload {

namespace {

ByteCount clamp_size(double bytes, ByteCount lo, ByteCount hi) {
  const double clamped =
      std::clamp(bytes, static_cast<double>(lo), static_cast<double>(hi));
  return static_cast<ByteCount>(clamped);
}

/// Precomputed Zipf weight table for one (n, s) pair. `weights[k]` and
/// `total` hold the exact doubles the original per-draw loop produced
/// (same pow calls, same ascending-k summation order), so draws against
/// the table are bit-identical to recomputing from scratch.
struct ZipfTable {
  std::vector<double> weights;
  double total = 0.0;
};

const ZipfTable& zipf_table(std::size_t n, double s) {
  // Keyed by (n, exact bits of s) themselves, never a hash of them: two
  // pairs sharing a table would draw ranks from the wrong weights. A run
  // draws from one pair, so the map stays tiny. Thread-local like every
  // other engine cache: sharded fleet replay never shares workload state
  // across threads, and the table contents are a pure function of (n, s)
  // so per-thread duplicates cannot diverge.
  thread_local std::map<std::pair<std::size_t, std::uint64_t>, ZipfTable>
      tables;
  ZipfTable& table = tables[{n, std::bit_cast<std::uint64_t>(s)}];
  if (table.weights.empty()) {
    table.weights.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      table.weights[k] = std::pow(static_cast<double>(k + 1), -s);
      table.total += table.weights[k];
    }
  }
  return table;
}

}  // namespace

ByteCount draw_size(http::ResourceClass resource_class, Rng& rng) {
  switch (resource_class) {
    case http::ResourceClass::Html:
      // Homepages: tens of KB of markup.
      return clamp_size(rng.lognormal(std::log(45e3), 0.5), KiB(8),
                        KiB(300));
    case http::ResourceClass::Css:
      return clamp_size(rng.lognormal(std::log(20e3), 0.8), KiB(2),
                        KiB(200));
    case http::ResourceClass::Script:
      return clamp_size(rng.lognormal(std::log(35e3), 0.9), KiB(2),
                        KiB(400));
    case http::ResourceClass::Image:
      // Heavy tail: a few hero images dominate page weight.
      return clamp_size(rng.lognormal(std::log(18e3), 1.1), 500,
                        MiB(1));
    case http::ResourceClass::Font:
      return clamp_size(rng.lognormal(std::log(30e3), 0.4), KiB(10),
                        KiB(120));
    case http::ResourceClass::Json:
      return clamp_size(rng.lognormal(std::log(3e3), 0.8), 200, KiB(64));
    case http::ResourceClass::Other:
      return clamp_size(rng.lognormal(std::log(8e3), 1.0), 200, KiB(256));
  }
  return KiB(8);
}

Duration draw_change_interval(http::ResourceClass resource_class,
                              Rng& rng) {
  switch (resource_class) {
    case http::ResourceClass::Html:
      // Homepages churn: minutes to a day.
      return seconds_f(rng.lognormal(std::log(6.0 * 3600), 1.0));
    case http::ResourceClass::Css:
    case http::ResourceClass::Script:
      // Mostly stable deploy artifacts; ~35% effectively immutable, a
      // small fast-churn tail (A/B configs, live bundles).
      if (rng.bernoulli(0.35)) return Duration::zero();
      if (rng.bernoulli(0.16)) {
        return seconds_f(rng.lognormal(std::log(4.0 * 3600), 0.8));
      }
      return seconds_f(rng.lognormal(std::log(20.0 * 86400), 1.0));
    case http::ResourceClass::Image:
      // Most images never change; some rotate with content, a few churn
      // within hours (hero/campaign rotations).
      if (rng.bernoulli(0.6)) return Duration::zero();
      if (rng.bernoulli(0.16)) {
        return seconds_f(rng.lognormal(std::log(8.0 * 3600), 0.8));
      }
      return seconds_f(rng.lognormal(std::log(7.0 * 86400), 1.2));
    case http::ResourceClass::Font:
      return Duration::zero();
    case http::ResourceClass::Json:
      // Dynamic payloads: seconds to hours.
      return seconds_f(rng.lognormal(std::log(600.0), 1.5));
    case http::ResourceClass::Other:
      if (rng.bernoulli(0.5)) return Duration::zero();
      return seconds_f(rng.lognormal(std::log(10.0 * 86400), 1.0));
  }
  return Duration::zero();
}

std::size_t draw_zipf_rank(std::size_t n, double s, Rng& rng) {
  if (n == 0) throw std::invalid_argument("draw_zipf_rank: n == 0");
  // One pow() per rank per (n, s) pair for the whole run, instead of 2n
  // pow() calls per draw. The linear subtraction scan is kept as-is
  // (same doubles, same order) so every drawn rank is bit-identical to
  // the unbatched implementation.
  const ZipfTable& table = zipf_table(n, s);
  double target = rng.next_double() * table.total;
  for (std::size_t k = 0; k < n; ++k) {
    const double w = table.weights[k];
    if (target < w) return k;
    target -= w;
  }
  return n - 1;  // numeric edge: land on the least popular rank
}

Duration draw_visit_gap(Duration mean_gap, Rng& rng) {
  if (mean_gap <= Duration::zero()) {
    throw std::invalid_argument("draw_visit_gap: mean_gap <= 0");
  }
  const Duration gap = seconds_f(rng.exponential(1.0 / to_seconds(mean_gap)));
  return std::max(gap, minutes(1));
}

}  // namespace catalyst::workload
