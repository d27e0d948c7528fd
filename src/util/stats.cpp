#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace catalyst {

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_valid_ = false;
}

double Summary::sum() const {
  double s = 0.0;
  for (double x : samples_) s += x;
  return s;
}

double Summary::mean() const {
  if (samples_.empty()) throw std::logic_error("Summary: empty");
  return sum() / static_cast<double>(samples_.size());
}

double Summary::min() const {
  if (samples_.empty()) throw std::logic_error("Summary: empty");
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) throw std::logic_error("Summary: empty");
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::ci95_halfwidth() const {
  if (samples_.size() < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(samples_.size()));
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::median() const { return percentile(50.0); }

double Summary::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("Summary: empty");
  ensure_sorted();
  if (p <= 0.0) return sorted_.front();
  if (p >= 100.0) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

BinAxis::BinAxis(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins) {
  if (bins == 0 || hi <= lo) {
    throw std::invalid_argument("BinAxis: bad range or zero bins");
  }
}

std::size_t BinAxis::index(double x) const {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(t * static_cast<double>(bins_));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(bins_) - 1);
  return static_cast<std::size_t>(bin);
}

double BinAxis::lower_edge(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(bins_);
}

}  // namespace catalyst
