// Open-addressing flat hash map for the simulation hot path.
//
// std::map / std::unordered_map put every entry behind a pointer chase
// (tree nodes / bucket chains), which is where population-scale replay
// spends a surprising share of its time. FlatHashMap stores keys and
// values inline in a power-of-two slot array with linear probing, so a
// lookup is one hash, one probe run over contiguous memory, zero
// allocations.
//
// Deliberate non-goals, documented because determinism is a contract in
// this codebase:
//   - Iteration order is slot order, i.e. a function of insertion history
//     and hashing — NOT sorted, NOT insertion order. Never iterate a
//     FlatHashMap to produce report/trace output; use a sorted container
//     when output order matters.
//   - No pointer stability: any insert may rehash. Take values out or use
//     indices/handles when you need stable references.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace catalyst {

/// SplitMix64 finalizer: cheap, well-mixed integer hashing (the identity
/// std::hash of integers is a trap for power-of-two open addressing).
constexpr std::uint64_t mix_u64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Default hasher: mixes integral keys, defers to std::hash otherwise.
template <class K>
struct FlatHash {
  std::size_t operator()(const K& key) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return static_cast<std::size_t>(
          mix_u64(static_cast<std::uint64_t>(key)));
    } else {
      return std::hash<K>{}(key);
    }
  }
};

template <class K, class V, class Hash = FlatHash<K>>
class FlatHashMap {
 public:
  using value_type = std::pair<K, V>;

  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    ctrl_.assign(ctrl_.size(), kEmpty);
    slots_.clear();
    slots_.resize(ctrl_.size());
    size_ = 0;
    tombstones_ = 0;
  }

  /// Ensures capacity for `n` entries without further rehashing.
  void reserve(std::size_t n) {
    std::size_t want = 8;
    while (want * 7 < n * 8) want <<= 1;  // keep load factor under 7/8
    if (want > ctrl_.size()) rehash(want);
  }

  V* find(const K& key) {
    const std::size_t idx = find_index(key);
    return idx == kNpos ? nullptr : &slots_[idx].second;
  }
  const V* find(const K& key) const {
    const std::size_t idx = find_index(key);
    return idx == kNpos ? nullptr : &slots_[idx].second;
  }
  bool contains(const K& key) const { return find_index(key) != kNpos; }

  /// Inserts or overwrites. Returns true when the key was newly inserted.
  bool insert_or_assign(const K& key, V value) {
    maybe_grow();
    const auto [idx, existed] = probe_for_insert(key);
    if (existed) {
      slots_[idx].second = std::move(value);
      return false;
    }
    occupy(idx, key, std::move(value));
    return true;
  }

  /// Default-constructs on first access, like std::map::operator[].
  V& operator[](const K& key) {
    maybe_grow();
    const auto [idx, existed] = probe_for_insert(key);
    if (!existed) occupy(idx, key, V{});
    return slots_[idx].second;
  }

  bool erase(const K& key) {
    const std::size_t idx = find_index(key);
    if (idx == kNpos) return false;
    ctrl_[idx] = kTombstone;
    slots_[idx] = value_type{};  // release resources eagerly
    --size_;
    ++tombstones_;
    return true;
  }

  /// Visits every live entry (slot order — see header caveat).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) fn(slots_[i].first, slots_[i].second);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) fn(slots_[i].first, slots_[i].second);
    }
  }

  /// Slots currently allocated (tests/telemetry).
  std::size_t capacity() const { return ctrl_.size(); }

 private:
  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t mask() const { return ctrl_.size() - 1; }

  std::size_t find_index(const K& key) const {
    if (ctrl_.empty()) return kNpos;
    std::size_t idx = Hash{}(key)&mask();
    for (;;) {
      if (ctrl_[idx] == kEmpty) return kNpos;
      if (ctrl_[idx] == kFull && slots_[idx].first == key) return idx;
      idx = (idx + 1) & mask();
    }
  }

  /// First insertable slot for `key` (reusing a tombstone when possible),
  /// or the existing slot. Requires capacity (maybe_grow called).
  std::pair<std::size_t, bool> probe_for_insert(const K& key) {
    std::size_t idx = Hash{}(key)&mask();
    std::size_t first_tombstone = kNpos;
    for (;;) {
      if (ctrl_[idx] == kEmpty) {
        return {first_tombstone != kNpos ? first_tombstone : idx, false};
      }
      if (ctrl_[idx] == kTombstone) {
        if (first_tombstone == kNpos) first_tombstone = idx;
      } else if (slots_[idx].first == key) {
        return {idx, true};
      }
      idx = (idx + 1) & mask();
    }
  }

  void occupy(std::size_t idx, const K& key, V value) {
    if (ctrl_[idx] == kTombstone) --tombstones_;
    ctrl_[idx] = kFull;
    slots_[idx].first = key;
    slots_[idx].second = std::move(value);
    ++size_;
  }

  void maybe_grow() {
    if (ctrl_.empty()) {
      rehash(8);
      return;
    }
    // Count tombstones toward load so probe runs stay short; rehash
    // doubles only when live entries demand it, otherwise just cleans.
    if ((size_ + tombstones_ + 1) * 8 >= ctrl_.size() * 7) {
      rehash(size_ * 8 >= ctrl_.size() * 5 ? ctrl_.size() * 2
                                           : ctrl_.size());
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<value_type> old_slots = std::move(slots_);
    ctrl_.assign(new_capacity, kEmpty);
    slots_.clear();
    slots_.resize(new_capacity);
    size_ = 0;
    tombstones_ = 0;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      const auto [idx, existed] = probe_for_insert(old_slots[i].first);
      assert(!existed);
      occupy(idx, old_slots[i].first, std::move(old_slots[i].second));
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<value_type> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace catalyst
