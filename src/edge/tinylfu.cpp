#include "edge/tinylfu.h"

#include <algorithm>

#include "util/hash.h"

namespace catalyst::edge {

namespace {

/// SplitMix64 finalizer — decorrelates the per-row indices derived from
/// one base hash (same mixing discipline as util/rng's seeding).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FrequencySketch::FrequencySketch(std::size_t width) {
  const std::size_t w = round_up_pow2(std::max<std::size_t>(width, 16));
  mask_ = w - 1;
  counters_.assign(static_cast<std::size_t>(kRows) * w, 0);
}

std::size_t FrequencySketch::index(std::string_view key, int row) const {
  const std::uint64_t base = fnv1a64(key);
  const std::uint64_t h = mix64(base + 0x9e3779b97f4a7c15ull *
                                           static_cast<std::uint64_t>(row + 1));
  return static_cast<std::size_t>(row) * (mask_ + 1) +
         static_cast<std::size_t>(h & mask_);
}

void FrequencySketch::record(std::string_view key) {
  for (int row = 0; row < kRows; ++row) {
    std::uint8_t& c = counters_[index(key, row)];
    if (c < kCounterMax) ++c;
  }
}

std::uint32_t FrequencySketch::estimate(std::string_view key) const {
  std::uint32_t est = kCounterMax;
  for (int row = 0; row < kRows; ++row) {
    est = std::min<std::uint32_t>(est, counters_[index(key, row)]);
  }
  return est;
}

void FrequencySketch::age() {
  for (std::uint8_t& c : counters_) c = static_cast<std::uint8_t>(c >> 1);
}

TinyLfuAdmission::TinyLfuAdmission(std::size_t expected_entries,
                                   std::uint64_t sample_period)
    : expected_entries_(std::max<std::size_t>(expected_entries, 16)),
      sample_period_(sample_period != 0
                         ? sample_period
                         : 8 * static_cast<std::uint64_t>(expected_entries_)),
      doorkeeper_(BloomFilter::for_entries(expected_entries_, 0.03)),
      sketch_(expected_entries_) {}

void TinyLfuAdmission::record(std::string_view key) {
  if (!doorkeeper_.may_contain(key)) {
    // First sighting (modulo false positives): the doorkeeper absorbs it
    // so the sketch only spends counters on keys that come back.
    doorkeeper_.insert(key);
  } else {
    sketch_.record(key);
  }
  if (++events_in_epoch_ >= sample_period_) {
    events_in_epoch_ = 0;
    sketch_.age();
    reset_doorkeeper();
  }
}

std::uint32_t TinyLfuAdmission::frequency(std::string_view key) const {
  return sketch_.estimate(key) +
         (doorkeeper_.may_contain(key) ? 1u : 0u);
}

void TinyLfuAdmission::reset_doorkeeper() {
  doorkeeper_ = BloomFilter::for_entries(expected_entries_, 0.03);
}

}  // namespace catalyst::edge
