// Keyed LRU store with byte-cost accounting — the storage engine under
// both the browser HTTP cache and the Service Worker cache.
//
// The index is an open-addressing FlatHashMap from the key string to a
// slot, and entries live in a slab whose slots form an intrusive
// doubly-linked recency list; each node owns its key so lru_key() and
// keys_mru_order() read it back. A get() is one string hash + one probe
// + four index writes; no tree walk, no list node allocation.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/entry.h"
#include "util/flat_hash.h"
#include "util/types.h"

namespace catalyst::cache {

class LruStore {
 public:
  /// `capacity` in bytes; entries larger than the capacity are rejected.
  explicit LruStore(ByteCount capacity);

  /// Inserts or replaces; evicts least-recently-used entries to fit.
  /// Returns false (and stores nothing) when the entry alone exceeds
  /// capacity.
  bool put(const std::string& key, CacheEntry entry);

  /// Lookup that refreshes recency. nullptr when absent. The pointer is
  /// invalidated by any subsequent mutation of the store.
  CacheEntry* get(const std::string& key);

  /// Lookup without touching recency.
  const CacheEntry* peek(const std::string& key) const;

  bool erase(const std::string& key);

  /// Key of the least-recently-used entry (the next internal-eviction
  /// victim), or nullopt when empty. Lets layered stores (segmented LRU,
  /// admission filters) pick victims without paying keys_mru_order().
  std::optional<std::string> lru_key() const {
    if (tail_ == kNil) return std::nullopt;
    return nodes_[tail_].key;
  }

  std::size_t entry_count() const { return index_.size(); }
  ByteCount size_bytes() const { return size_bytes_; }
  ByteCount capacity() const { return capacity_; }

  /// Keys in most-recently-used order (for inspection/tests).
  std::vector<std::string> keys_mru_order() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    CacheEntry entry;
    ByteCount cost = 0;
    std::string key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t slot);
  void link_front(std::uint32_t slot);
  void release(std::uint32_t slot);
  void evict_to_fit(ByteCount incoming_cost);

  ByteCount capacity_;
  ByteCount size_bytes_ = 0;
  std::vector<Node> nodes_;           // slab; slots recycled via free_
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  FlatHashMap<std::string, std::uint32_t> index_;
};

}  // namespace catalyst::cache
