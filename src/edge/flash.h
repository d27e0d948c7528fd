// Flash tier — the large, slow, write-amplification-accounted second
// tier behind a PoP's RAM SLRU.
//
// Real CDN PoPs put two orders of magnitude more flash than RAM behind
// every chassis; what limits how aggressively they use it is not read
// latency but write endurance, so flash cache designs (RIPQ, Pelikan's
// segcache) write a log of fixed-size segments and reclaim whole
// segments at a time. This tier reproduces that shape:
//
//   - admission is demotion: entries enter only when the RAM SLRU evicts
//     them (EdgePop feeds the handoff), never directly from the origin —
//     one-hit wonders die in RAM probation without costing flash writes;
//   - storage is an append-only log of segments; replacing a key marks
//     the old record dead in place (log caches never update in place);
//   - eviction reclaims the oldest segment: dead records are dropped
//     free, live records that were referenced since they were written
//     are salvaged to the head of the log (clearing the reference bit,
//     CLOCK-style), and unreferenced live records are evicted;
//   - every salvage is a device write with no host write behind it, so
//     stats().write_amp() is a real write-amplification figure, not a
//     modeled constant.
//
// FlashTier is a pure state machine: read/write *latency* is modeled by
// the caller submitting ops to io::AioEngine; GC traffic is accounted
// here but deliberately costs no queue slots (devices garbage-collect in
// the background).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "cache/entry.h"
#include "io/aio.h"
#include "util/types.h"

namespace catalyst::edge {

struct FlashConfig {
  /// Byte budget of the flash log. 0 (the default) means no flash tier
  /// anywhere: EdgePop behaves byte-identically to pre-flash builds.
  ByteCount capacity = 0;

  /// Async-I/O device model (queue depth + service latencies).
  io::AioDeviceConfig device;

  /// Seed of the per-PoP latency-jitter stream (forked by pop id).
  std::uint64_t seed = 2024;

  bool enabled() const { return capacity > 0; }
};

struct FlashStats {
  std::uint64_t stores = 0;       // records appended on behalf of a host write
  std::uint64_t evictions = 0;    // live records dropped by GC
  std::uint64_t gc_rewrites = 0;  // live records salvaged by GC
  ByteCount host_bytes_written = 0;    // bytes the cache asked to write
  ByteCount device_bytes_written = 0;  // bytes the device actually wrote

  /// Device writes per host write — the endurance figure flash caches
  /// optimize. 1.0 until GC first salvages something.
  double write_amp() const {
    return host_bytes_written == 0
               ? 1.0
               : static_cast<double>(device_bytes_written) /
                     static_cast<double>(host_bytes_written);
  }
};

class FlashTier {
 public:
  explicit FlashTier(const FlashConfig& config);

  /// Appends (or supersedes) a record. Returns false when the entry
  /// alone exceeds capacity. May reclaim segments to stay in budget.
  bool put(const std::string& key, cache::CacheEntry entry);

  /// Lookup that sets the record's reference bit (GC salvages referenced
  /// records). The pointer stays valid until the next put(): an append
  /// may reallocate the open segment, and GC moves or drops records.
  cache::CacheEntry* get(const std::string& key);

  /// Lookup without touching the reference bit; the pointer lives as
  /// get()'s does.
  const cache::CacheEntry* peek(const std::string& key) const;

  bool contains(const std::string& key) const { return index_.contains(key); }

  /// Marks the record dead (log caches never erase in place); space is
  /// reclaimed when its segment is. Returns false when absent.
  bool erase(const std::string& key);

  /// Bytes on the log, dead records included.
  ByteCount log_bytes() const { return log_bytes_; }
  const FlashStats& stats() const { return stats_; }

 private:
  struct Record {
    std::string key;
    cache::CacheEntry entry;
    ByteCount cost = 0;
    bool live = false;
    bool referenced = false;
  };

  struct Segment {
    std::uint64_t seq = 0;  // monotonically increasing segment id
    std::vector<Record> records;
    ByteCount bytes = 0;  // log bytes including dead records
  };

  struct Location {
    std::uint64_t segment_seq = 0;
    std::uint32_t record = 0;
  };

  Record* locate(const std::string& key);
  const Record* locate(const std::string& key) const;
  void append(Record record, bool host_write);
  Segment& open_segment();
  void reclaim_oldest();

  ByteCount capacity_;
  ByteCount segment_bytes_;  // kSegmentBytes, clamped to capacity_ / 4
  FlashStats stats_;
  ByteCount log_bytes_ = 0;  // bytes on the log (live + dead)
  std::uint64_t next_seq_ = 0;
  std::deque<Segment> segments_;  // front = oldest, back = open
  std::unordered_map<std::string, Location> index_;  // live records only
};

}  // namespace catalyst::edge
