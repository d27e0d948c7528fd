#include "cache/storage.h"

#include <utility>

namespace catalyst::cache {

LruStore::LruStore(ByteCount capacity) : capacity_(capacity) {}

bool LruStore::put(const std::string& key, CacheEntry entry) {
  const ByteCount cost = entry.cost();
  if (cost > capacity_) return false;
  erase(key);
  evict_to_fit(cost);
  entries_.push_front(Node{key, std::move(entry), cost});
  index_.emplace(key, entries_.begin());
  size_bytes_ += cost;
  return true;
}

CacheEntry* LruStore::get(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  entries_.splice(entries_.begin(), entries_, it->second);  // move to front
  return &it->second->entry;
}

const CacheEntry* LruStore::peek(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second->entry;
}

bool LruStore::erase(const std::string& key) {
  return take(key).has_value();
}

std::optional<CacheEntry> LruStore::take(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  CacheEntry entry = std::move(it->second->entry);
  remove(it);
  return entry;
}

std::optional<std::string> LruStore::lru_key() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.back().key;
}

void LruStore::remove(Index::iterator it) {
  size_bytes_ -= it->second->cost;
  entries_.erase(it->second);
  index_.erase(it);
}

void LruStore::evict_to_fit(ByteCount incoming_cost) {
  while (!entries_.empty() && size_bytes_ + incoming_cost > capacity_) {
    remove(index_.find(entries_.back().key));
  }
}

std::vector<std::string> LruStore::keys_mru_order() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Node& node : entries_) out.push_back(node.key);
  return out;
}

}  // namespace catalyst::cache
