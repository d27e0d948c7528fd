#include "cache/storage.h"

namespace catalyst::cache {

LruStore::LruStore(ByteCount capacity) : capacity_(capacity) {}

void LruStore::unlink(std::uint32_t slot) {
  Node& node = nodes_[slot];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
  node.prev = kNil;
  node.next = kNil;
}

void LruStore::link_front(std::uint32_t slot) {
  Node& node = nodes_[slot];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) nodes_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void LruStore::release(std::uint32_t slot) {
  nodes_[slot].entry = CacheEntry{};  // drop body bytes now, not later
  nodes_[slot].key.clear();
  free_.push_back(slot);
}

bool LruStore::put(const std::string& key, CacheEntry entry) {
  const ByteCount cost = entry.cost();
  if (cost > capacity_) return false;
  if (const std::uint32_t* slot = index_.find(key)) {
    size_bytes_ -= nodes_[*slot].cost;
    unlink(*slot);
    release(*slot);
    index_.erase(key);
  }
  evict_to_fit(cost);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[slot];
  node.entry = std::move(entry);
  node.cost = cost;
  node.key = key;
  link_front(slot);
  index_.insert_or_assign(key, slot);
  size_bytes_ += cost;
  return true;
}

CacheEntry* LruStore::get(const std::string& key) {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return nullptr;
  if (*slot != head_) {  // move to front
    unlink(*slot);
    link_front(*slot);
  }
  return &nodes_[*slot].entry;
}

const CacheEntry* LruStore::peek(const std::string& key) const {
  const std::uint32_t* slot = index_.find(key);
  return slot == nullptr ? nullptr : &nodes_[*slot].entry;
}

bool LruStore::erase(const std::string& key) {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return false;
  size_bytes_ -= nodes_[*slot].cost;
  unlink(*slot);
  release(*slot);
  index_.erase(key);
  return true;
}

void LruStore::evict_to_fit(ByteCount incoming_cost) {
  while (tail_ != kNil && size_bytes_ + incoming_cost > capacity_) {
    const std::uint32_t victim = tail_;
    size_bytes_ -= nodes_[victim].cost;
    index_.erase(nodes_[victim].key);
    unlink(victim);
    release(victim);
  }
}

std::vector<std::string> LruStore::keys_mru_order() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (std::uint32_t slot = head_; slot != kNil; slot = nodes_[slot].next) {
    out.push_back(nodes_[slot].key);
  }
  return out;
}

}  // namespace catalyst::cache
