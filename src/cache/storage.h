// Keyed LRU store with byte-cost accounting — the storage engine under
// both the browser HTTP cache and the Service Worker cache, and under
// both segments of an edge PoP's SLRU.
//
// Entries live in a std::list in recency order (front = most recently
// used), indexed by a std::unordered_map from the key string to the
// entry's list node; each node also holds its key so lru_key(),
// keys_mru_order() and eviction read it back. A get() is one string hash
// and one splice. Nothing iterates the index: every ordered read walks
// the list.
#pragma once

#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/entry.h"
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

  /// Lookup that refreshes recency. nullptr when absent. The pointer
  /// stays valid until this key's entry is erased, taken, replaced by a
  /// put() or evicted; other keys' mutations leave it alone.
  CacheEntry* get(const std::string& key);

  /// Lookup without touching recency; the pointer lives as get()'s does.
  const CacheEntry* peek(const std::string& key) const;

  bool erase(const std::string& key);

  /// Removes the entry for `key` and moves it out (nullopt when absent),
  /// so a layered store can move an entry between stores without a copy.
  std::optional<CacheEntry> take(const std::string& key);

  /// Key of the least-recently-used entry (the next internal-eviction
  /// victim), or nullopt when empty. Lets layered stores (segmented LRU,
  /// admission filters) pick victims without paying keys_mru_order().
  std::optional<std::string> lru_key() const;

  std::size_t entry_count() const { return index_.size(); }
  ByteCount size_bytes() const { return size_bytes_; }

  /// Keys in most-recently-used order (cache digests, tests).
  std::vector<std::string> keys_mru_order() const;

 private:
  struct Node {
    std::string key;
    CacheEntry entry;
    ByteCount cost = 0;
  };
  using List = std::list<Node>;
  using Index = std::unordered_map<std::string, List::iterator>;

  void remove(Index::iterator it);
  void evict_to_fit(ByteCount incoming_cost);

  ByteCount capacity_;
  ByteCount size_bytes_ = 0;
  List entries_;  // front = most recently used
  Index index_;
};

}  // namespace catalyst::cache
