// TinyLFU-style admission filtering for the shared edge tier.
//
// A capacity-bounded shared cache lives or dies by what it lets in: a
// single crawl of one-hit-wonder URLs can flush the working set of every
// user behind the PoP. TinyLFU (Einziger et al.) guards admission with an
// approximate frequency history: a candidate only displaces the eviction
// victim when it has been requested more often. We keep the classic
// two-part sketch — a Bloom-filter doorkeeper that absorbs the long tail
// of once-seen keys, backed by a small counting sketch for everything that
// comes back — and age the whole history periodically so yesterday's hot
// set cannot pin the cache forever.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bloom.h"

namespace catalyst::edge {

/// Count-min sketch with saturating 8-bit counters and periodic halving.
/// Deterministic: counters depend only on the sequence of record() calls.
class FrequencySketch {
 public:
  /// `width` is rounded up to a power of two (per-row counter count).
  explicit FrequencySketch(std::size_t width);

  void record(std::string_view key);

  /// Approximate times `key` was recorded since the last halving epochs
  /// (min over rows — the usual count-min estimate).
  std::uint32_t estimate(std::string_view key) const;

  /// Halves every counter (TinyLFU's "reset" aging step).
  void age();

 private:
  static constexpr int kRows = 4;
  static constexpr std::uint8_t kCounterMax = 255;

  std::size_t index(std::string_view key, int row) const;

  std::size_t mask_;
  std::vector<std::uint8_t> counters_;  // kRows rows of (mask_+1) counters
};

/// The admission policy: record every request, and on cache pressure admit
/// the candidate only if its estimated frequency beats the victim's.
class TinyLfuAdmission {
 public:
  /// `expected_entries` sizes the doorkeeper and sketch; `sample_period`
  /// is how many recorded requests pass between aging steps (defaults to
  /// 8× the expected entry count, close to the paper's W = 8C).
  explicit TinyLfuAdmission(std::size_t expected_entries,
                            std::uint64_t sample_period = 0);

  /// Records one request for `key` (call on every edge request).
  void record(std::string_view key);

  /// Doorkeeper-adjusted frequency estimate.
  std::uint32_t frequency(std::string_view key) const;

  /// True when `candidate` should displace `victim`.
  bool admit(std::string_view candidate, std::string_view victim) const {
    return frequency(candidate) > frequency(victim);
  }

 private:
  void reset_doorkeeper();

  std::size_t expected_entries_;
  std::uint64_t sample_period_;
  std::uint64_t events_in_epoch_ = 0;
  BloomFilter doorkeeper_;
  FrequencySketch sketch_;
};

}  // namespace catalyst::edge
