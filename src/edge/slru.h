// Segmented LRU (SLRU) — the eviction structure used by CDN caches and by
// the TinyLFU papers' reference design.
//
// Two cache::LruStore segments: entries enter *probation* and are promoted
// to *protected* on their first re-reference. Eviction victims come from
// probation's cold tail, so a one-touch scan can never flush entries that
// have proven reuse — the scan resistance plain LRU lacks. The protected
// segment is budgeted to a fraction of total capacity; overflow demotes
// its LRU entry back to probation (where it must re-earn promotion).
//
// Unlike LruStore, SlruStore never evicts on its own: callers make room
// explicitly (victim_key()/evict_victim()) so an admission policy can
// veto the insertion instead of the eviction happening behind its back.
//
// Promotion and demotion move an entry between the segments
// (LruStore::take), so they leave no copy behind; the moved entry lives
// at a new address.
#pragma once

#include <optional>
#include <string>

#include "cache/storage.h"

namespace catalyst::edge {

class SlruStore {
 public:
  /// `capacity` in bytes; `protected_fraction` of it is the promoted
  /// segment's budget (clamped to [0, 1]).
  explicit SlruStore(ByteCount capacity, double protected_fraction = 0.8);

  /// Lookup that refreshes recency and applies the SLRU promotion rule.
  /// The pointer stays valid until this key's entry is erased, replaced,
  /// evicted, or moved to the other segment: a get() of this key that
  /// promotes it, or a promotion of another key that demotes it.
  cache::CacheEntry* get(const std::string& key);

  /// Inserts (or replaces) into probation. Requires the caller to have
  /// made room: returns false when the entry alone exceeds capacity or
  /// when inserting would overflow the total budget.
  bool put(const std::string& key, cache::CacheEntry entry);

  bool erase(const std::string& key);

  /// Next eviction victim: probation's LRU tail, falling back to the
  /// protected tail when probation is empty. nullopt when empty.
  std::optional<std::string> victim_key() const;

  /// A victim taken out by evict_victim().
  struct Evicted {
    std::string key;
    cache::CacheEntry entry;
  };

  /// Evicts the current victim and moves it out (nullopt when empty), so
  /// the caller can keep it in another tier without a copy.
  std::optional<Evicted> evict_victim();

  /// True when storing `incoming_cost` more bytes requires eviction.
  bool needs_room(ByteCount incoming_cost) const {
    return size_bytes() + incoming_cost > capacity_;
  }

  ByteCount size_bytes() const {
    return probation_.size_bytes() + protected_.size_bytes();
  }
  ByteCount capacity() const { return capacity_; }
  std::size_t evictions() const { return evictions_; }

 private:
  void rebalance_protected();

  ByteCount capacity_;
  ByteCount protected_capacity_;
  std::size_t evictions_ = 0;
  // Both segments carry the full byte budget so they never auto-evict;
  // SlruStore enforces the real budgets itself (see header comment).
  cache::LruStore probation_;
  cache::LruStore protected_;
};

}  // namespace catalyst::edge
