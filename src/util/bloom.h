// Bloom filter — the data structure behind the Cache-Digest family of
// proposals (related work the paper builds on): the client summarizes
// which URLs it has cached so the server can avoid pushing them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace catalyst {

class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 8; `hash_count` in [1, 16].
  BloomFilter(std::size_t bits, int hash_count);

  /// Sizes a filter for `expected_entries` at roughly the given false-
  /// positive rate (standard m = -n ln p / ln²2, k = m/n ln 2).
  static BloomFilter for_entries(std::size_t expected_entries,
                                 double false_positive_rate);

  void insert(std::string_view key);
  bool may_contain(std::string_view key) const;

  int hash_count() const { return hash_count_; }
  ByteCount byte_size() const { return bits_.size(); }

  /// Wire format: "<k>:<base64 bits>".
  std::string serialize() const;
  static std::optional<BloomFilter> deserialize(std::string_view text);

 private:
  std::uint64_t bit_index(std::string_view key, int i) const;

  std::vector<std::uint8_t> bits_;
  int hash_count_;
};

}  // namespace catalyst
