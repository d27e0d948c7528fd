#include "edge/flash.h"

#include <algorithm>
#include <utility>

namespace catalyst::edge {

namespace {

/// GC reclaim granularity of a log large enough to hold four of them.
constexpr ByteCount kSegmentBytes = MiB(2);

}  // namespace

FlashTier::FlashTier(const FlashConfig& config)
    : capacity_(config.capacity),
      // A log that cannot hold four segments cannot garbage-collect
      // without thrashing; shrink the segment, never the budget.
      segment_bytes_(
          std::max<ByteCount>(1, std::min(kSegmentBytes, capacity_ / 4))) {}

FlashTier::Record* FlashTier::locate(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  const Location& loc = it->second;
  Segment& seg = segments_[loc.segment_seq - segments_.front().seq];
  return &seg.records[loc.record];
}

const FlashTier::Record* FlashTier::locate(const std::string& key) const {
  return const_cast<FlashTier*>(this)->locate(key);
}

bool FlashTier::put(const std::string& key, cache::CacheEntry entry) {
  const ByteCount cost = entry.cost();
  if (cost > capacity_) return false;

  if (Record* old = locate(key)) {
    // Log caches never update in place: the old record goes dead where
    // it lies and its space comes back when its segment is reclaimed.
    old->live = false;
    index_.erase(key);
  }

  Record record;
  record.key = key;
  record.entry = std::move(entry);
  record.cost = cost;
  record.live = true;
  append(std::move(record), /*host_write=*/true);
  ++stats_.stores;

  while (log_bytes_ > capacity_ && segments_.size() > 1) {
    reclaim_oldest();
  }
  return true;
}

cache::CacheEntry* FlashTier::get(const std::string& key) {
  Record* record = locate(key);
  if (record == nullptr) return nullptr;
  record->referenced = true;
  return &record->entry;
}

const cache::CacheEntry* FlashTier::peek(const std::string& key) const {
  const Record* record = locate(key);
  return record == nullptr ? nullptr : &record->entry;
}

bool FlashTier::erase(const std::string& key) {
  Record* record = locate(key);
  if (record == nullptr) return false;
  record->live = false;
  index_.erase(key);
  return true;
}

FlashTier::Segment& FlashTier::open_segment() {
  if (segments_.empty() || segments_.back().bytes >= segment_bytes_) {
    Segment seg;
    seg.seq = next_seq_++;
    segments_.push_back(std::move(seg));
  }
  return segments_.back();
}

void FlashTier::append(Record record, bool host_write) {
  const ByteCount cost = record.cost;
  Segment& seg = open_segment();
  seg.records.push_back(std::move(record));
  seg.bytes += cost;
  log_bytes_ += cost;
  index_.insert_or_assign(
      seg.records.back().key,
      Location{seg.seq, static_cast<std::uint32_t>(seg.records.size() - 1)});
  stats_.device_bytes_written += cost;
  if (host_write) stats_.host_bytes_written += cost;
}

void FlashTier::reclaim_oldest() {
  Segment victim = std::move(segments_.front());
  segments_.pop_front();
  log_bytes_ -= victim.bytes;
  for (Record& record : victim.records) {
    if (!record.live) continue;  // dead space reclaims for free
    index_.erase(record.key);
    if (record.referenced) {
      // CLOCK second chance: salvage to the log head, clearing the bit
      // so a second sweep without a reference evicts it. The rewrite is
      // a device write with no host write behind it — write amp.
      record.referenced = false;
      ++stats_.gc_rewrites;
      append(std::move(record), /*host_write=*/false);
    } else {
      ++stats_.evictions;
    }
  }
}

}  // namespace catalyst::edge
