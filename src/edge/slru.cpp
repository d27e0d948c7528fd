#include "edge/slru.h"

#include <algorithm>

namespace catalyst::edge {

SlruStore::SlruStore(ByteCount capacity, double protected_fraction)
    : capacity_(capacity),
      protected_capacity_(static_cast<ByteCount>(
          static_cast<double>(capacity) *
          std::clamp(protected_fraction, 0.0, 1.0))),
      probation_(capacity),
      protected_(capacity) {}

cache::CacheEntry* SlruStore::get(const std::string& key) {
  if (cache::CacheEntry* entry = protected_.get(key)) return entry;
  // First re-reference: promote.
  std::optional<cache::CacheEntry> promoted = probation_.take(key);
  if (!promoted) return nullptr;
  protected_.put(key, std::move(*promoted));
  rebalance_protected();
  return protected_.get(key);
}

bool SlruStore::put(const std::string& key, cache::CacheEntry entry) {
  const ByteCount cost = entry.cost();
  if (cost > capacity_) return false;
  erase(key);
  if (needs_room(cost)) return false;  // caller must evict first
  return probation_.put(key, std::move(entry));
}

bool SlruStore::erase(const std::string& key) {
  return probation_.erase(key) || protected_.erase(key);
}

std::optional<std::string> SlruStore::victim_key() const {
  if (const auto key = probation_.lru_key()) return key;
  return protected_.lru_key();
}

std::optional<SlruStore::Evicted> SlruStore::evict_victim() {
  std::optional<std::string> key = victim_key();
  if (!key) return std::nullopt;
  std::optional<cache::CacheEntry> entry = probation_.take(*key);
  if (!entry) entry = protected_.take(*key);
  ++evictions_;
  return Evicted{std::move(*key), std::move(*entry)};
}

void SlruStore::rebalance_protected() {
  // Demote the protected tail until the segment fits its budget. The
  // just-promoted entry sits at the MRU end, so it is only demoted when
  // it alone exceeds the budget — in which case it belongs in probation
  // anyway.
  while (protected_.size_bytes() > protected_capacity_ &&
         protected_.entry_count() > 1) {
    const auto tail = protected_.lru_key();
    if (!tail) break;
    probation_.put(*tail, std::move(*protected_.take(*tail)));
  }
}

}  // namespace catalyst::edge
