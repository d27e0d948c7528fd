#include "util/bloom.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/base64.h"
#include "util/hash.h"
#include "util/strings.h"

namespace catalyst {

BloomFilter::BloomFilter(std::size_t bits, int hash_count)
    : bits_((std::max<std::size_t>(bits, 8) + 7) / 8, 0),
      hash_count_(std::clamp(hash_count, 1, 16)) {}

BloomFilter BloomFilter::for_entries(std::size_t expected_entries,
                                     double false_positive_rate) {
  if (expected_entries == 0) expected_entries = 1;
  false_positive_rate = std::clamp(false_positive_rate, 1e-6, 0.5);
  const double ln2 = std::log(2.0);
  const double m = -static_cast<double>(expected_entries) *
                   std::log(false_positive_rate) / (ln2 * ln2);
  const int k = std::max(1, static_cast<int>(std::lround(
                                m / static_cast<double>(expected_entries) *
                                ln2)));
  return BloomFilter(static_cast<std::size_t>(std::ceil(m)), k);
}

std::uint64_t BloomFilter::bit_index(std::string_view key, int i) const {
  // Double hashing: h1 + i*h2 (Kirsch–Mitzenmacher).
  const std::uint64_t h1 = fnv1a64(key);
  // A second independent hash: FNV over the key with a salt prefix.
  std::uint64_t h2 = 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull;
  for (char c : key) {
    h2 ^= static_cast<std::uint8_t>(c) + 0x9e37u;
    h2 *= 0x100000001b3ull;
  }
  return (h1 + static_cast<std::uint64_t>(i) * (h2 | 1)) %
         (bits_.size() * 8);
}

void BloomFilter::insert(std::string_view key) {
  for (int i = 0; i < hash_count_; ++i) {
    const std::uint64_t bit = bit_index(key, i);
    bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

bool BloomFilter::may_contain(std::string_view key) const {
  for (int i = 0; i < hash_count_; ++i) {
    const std::uint64_t bit = bit_index(key, i);
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
  }
  return true;
}

std::string BloomFilter::serialize() const {
  return std::to_string(hash_count_) + ":" +
         base64_encode(std::string_view(
             reinterpret_cast<const char*>(bits_.data()), bits_.size()));
}

std::optional<BloomFilter> BloomFilter::deserialize(std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  std::uint64_t k = 0;
  if (!parse_u64(text.substr(0, colon), k) || k == 0 || k > 16) {
    return std::nullopt;
  }
  const auto raw = base64_decode(text.substr(colon + 1));
  if (!raw || raw->empty()) return std::nullopt;
  BloomFilter filter(raw->size() * 8, static_cast<int>(k));
  std::copy(raw->begin(), raw->end(),
            reinterpret_cast<char*>(filter.bits_.data()));
  return filter;
}

}  // namespace catalyst
