#include "edge/pop.h"

#include <algorithm>
#include <utility>

#include "cache/freshness.h"
#include "http/headers.h"
#include "util/strings.h"

namespace catalyst::edge {

namespace {

/// Sizes the TinyLFU history from the byte budget: assume a typical web
/// object of ~16 KiB, the order of this simulator's generated assets.
std::size_t expected_entries_for(ByteCount capacity) {
  return static_cast<std::size_t>(capacity / KiB(16)) + 16;
}

}  // namespace

bool carried_on_304(std::string_view name) {
  return iequals(name, http::kEtagHeader) ||
         iequals(name, http::kCacheControl) ||
         iequals(name, http::kExpires) || iequals(name, http::kDate) ||
         iequals(name, http::kLastModified) ||
         iequals(name, http::kXEtagConfig);
}

EdgePop::EdgePop(EdgeConfig config)
    : config_(config),
      host_name_("edge.pop" + std::to_string(config.pop_id)),
      store_(config.capacity),
      admission_(expected_entries_for(config.capacity)),
      // Forked by pop id so every PoP draws an independent latency-jitter
      // stream from the same master seed — deterministic regardless of
      // which thread replays which PoP.
      flash_rng_(Rng(config.flash.seed)
                     .fork(static_cast<std::uint64_t>(config.pop_id))) {
  if (config_.flash.enabled()) {
    flash_ = std::make_unique<FlashTier>(config_.flash);
  }
}

bool EdgePop::entry_is_fresh(const cache::CacheEntry& entry,
                             TimePoint now) const {
  // Time-travel guard: the fleet replays users sequentially, so shared
  // state can have been filled at a simulated time later than this user's
  // clock. Serving it fresh would leak the future; demote to stale so it
  // revalidates like any expired entry.
  if (entry.response_time > now) return false;
  if (cache::is_negative_status(entry.response.status)) {
    return config_.negative.enabled &&
           cache::is_negative_fresh(entry, now, config_.negative);
  }
  // Heuristic freshness (RFC 9111 §4.2.2) applies to shared caches too.
  const http::CacheControl cc = entry.response.cache_control();
  return !cc.must_revalidate && !cc.no_cache &&
         cache::is_fresh(entry, now, /*allow_heuristic=*/true);
}

EdgeLookupResult EdgePop::lookup(const std::string& key, TimePoint now) {
  cache::CacheEntry* entry = store_.get(key);
  if (entry == nullptr) return EdgeLookupResult{EdgeLookupDecision::Miss};
  if (entry_is_fresh(*entry, now)) {
    if (cache::is_negative_status(entry->response.status)) {
      ++stats_.negative_hits;
    }
    return EdgeLookupResult{EdgeLookupDecision::Fresh, entry};
  }
  if (cache::is_negative_status(entry->response.status)) {
    // An expired error has nothing to revalidate; drop it so the next
    // reference refetches (a future-filled one waits for its clock).
    if (entry->response_time <= now) store_.erase(key);
    return EdgeLookupResult{EdgeLookupDecision::Miss};
  }
  if (entry->etag() ||
      entry->response.headers.contains(http::kLastModified)) {
    return EdgeLookupResult{EdgeLookupDecision::Stale, entry};
  }
  return EdgeLookupResult{EdgeLookupDecision::Miss};
}

bool EdgePop::admit_and_store(const std::string& key, http::Response response,
                              TimePoint request_time, TimePoint response_time,
                              io::AioEngine* aio) {
  if (!cache::is_storable(response, config_.negative, /*shared=*/true)) {
    return false;
  }
  const bool negative = cache::is_negative_status(response.status);

  cache::CacheEntry entry;
  entry.response = std::move(response);
  entry.request_time = request_time;
  entry.response_time = response_time;
  const ByteCount cost = entry.cost();
  if (cost > store_.capacity()) return false;

  if (!make_room(key, cost, aio)) {
    ++stats_.admission_rejects;
    return false;
  }
  if (store_.put(key, std::move(entry))) {
    ++stats_.stores;
    if (negative) ++stats_.negative_stores;
    // Tier exclusivity: the fresh RAM copy supersedes any flash record
    // left over from an earlier demotion.
    if (flash_ != nullptr) flash_->erase(key);
    return true;
  }
  return false;
}

bool EdgePop::make_room(const std::string& key, ByteCount cost,
                        io::AioEngine* aio) {
  while (store_.needs_room(cost)) {
    const auto victim = store_.victim_key();
    if (!victim) break;
    if (config_.tinylfu_admission && !admission_.admit(key, *victim)) {
      return false;
    }
    demote_to_flash(*victim, aio);
    store_.evict_victim();
  }
  return true;
}

void EdgePop::demote_to_flash(const std::string& victim_key,
                              io::AioEngine* aio) {
  if (flash_ == nullptr) return;
  // peek, not get: a get would promote the victim within the SLRU and
  // make evict_victim() take out an innocent bystander instead.
  const cache::CacheEntry* entry = store_.peek(victim_key);
  if (entry == nullptr) return;
  cache::CacheEntry copy = *entry;
  const ByteCount cost = copy.cost();
  if (flash_->put(victim_key, std::move(copy))) {
    ++stats_.flash_demotions;
    // The demotion is a real device write: it occupies a queue slot for
    // its service time, delaying reads behind it.
    if (aio != nullptr) aio->submit_write(cost);
  }
}

ByteCount EdgePop::flash_entry_cost(const std::string& key) const {
  if (flash_ == nullptr) return 0;
  const cache::CacheEntry* entry = flash_->peek(key);
  return entry == nullptr ? 0 : entry->response.wire_size();
}

FlashReadResult EdgePop::complete_flash_read(const std::string& key,
                                             TimePoint now,
                                             io::AioEngine* aio) {
  if (flash_ == nullptr) return FlashReadResult{FlashReadOutcome::Gone};
  cache::CacheEntry* entry = flash_->get(key);
  // The record can vanish between submit and completion (superseded by a
  // coalesced origin fill, or GC-evicted by demotions the fill caused).
  if (entry == nullptr) return FlashReadResult{FlashReadOutcome::Gone};

  const bool fresh = entry_is_fresh(*entry, now);
  if (!fresh) {
    if (entry->etag() ||
        entry->response.headers.contains(http::kLastModified)) {
      return FlashReadResult{FlashReadOutcome::Stale, entry};
    }
    // Expired and unvalidatable: dead weight in any tier.
    flash_->erase(key);
    return FlashReadResult{FlashReadOutcome::Miss};
  }

  // Fresh: promote to RAM so repeat hits skip the device — unless TinyLFU
  // judges the RAM victims more valuable, in which case the bytes are
  // served from flash and residency stays as it was. Copy first: demoting
  // RAM victims mutates the flash log and invalidates `entry`.
  cache::CacheEntry copy = *entry;
  const ByteCount cost = copy.cost();
  const bool admit = cost <= store_.capacity() && make_room(key, cost, aio);
  if (admit && !store_.needs_room(cost) && store_.put(key, copy)) {
    flash_->erase(key);
    ++stats_.flash_promotions;
    return FlashReadResult{FlashReadOutcome::Fresh, store_.get(key)};
  }
  ++stats_.flash_promotion_rejects;
  // Re-locate: GC may have moved the record while victims demoted. Its
  // reference bit is set (we just read it), so GC salvages rather than
  // evicts it — but stay defensive about the pointer.
  cache::CacheEntry* kept = flash_->get(key);
  if (kept == nullptr) return FlashReadResult{FlashReadOutcome::Gone};
  return FlashReadResult{FlashReadOutcome::Fresh, kept};
}

cache::CacheEntry* EdgePop::refresh_not_modified(
    const std::string& key, const http::Response& not_modified,
    TimePoint request_time, TimePoint response_time) {
  cache::CacheEntry* entry = store_.get(key);
  // A 304 can answer a conditional launched off a stale *flash* record;
  // refresh it where it lives.
  if (entry == nullptr && flash_ != nullptr) entry = flash_->get(key);
  if (entry == nullptr) return nullptr;
  // RFC 9111 §4.3.4 metadata refresh, plus X-Etag-Config: Catalyst origins
  // send the current subresource validity map on 304s, and forwarding the
  // *stored* (possibly outdated) map would make downstream service workers
  // trust subresources the origin has since changed.
  for (const auto& field : not_modified.headers.fields()) {
    if (carried_on_304(field.name)) {
      entry->response.headers.set(field.name, field.value);
    }
  }
  entry->request_time = request_time;
  entry->response_time = response_time;
  return entry;
}

void EdgePop::note_request(const std::string& key) {
  ++stats_.requests;
  admission_.record(key);
}

void EdgePop::note_hit(ByteCount bytes_served) {
  ++stats_.hits;
  stats_.bytes_served += bytes_served;
}

void EdgePop::note_revalidated_hit(ByteCount bytes_served) {
  ++stats_.revalidated_hits;
  stats_.bytes_served += bytes_served;
}

EdgePopStats EdgePop::stats() const {
  EdgePopStats s = stats_;
  s.evictions = store_.evictions();
  if (flash_ != nullptr) {
    const FlashStats& f = flash_->stats();
    s.flash_stores = f.stores;
    s.flash_evictions = f.evictions;
    s.flash_gc_rewrites = f.gc_rewrites;
    s.flash_host_bytes = f.host_bytes_written;
    s.flash_device_bytes = f.device_bytes_written;
    s.flash_enabled = true;
    s.aio_reads = aio_stats_.reads;
    s.aio_writes = aio_stats_.writes;
    s.aio_merged_reads = aio_stats_.merged_reads;
    s.aio_queue_waits = aio_stats_.queue_waits;
    s.aio_peak_inflight = aio_stats_.peak_inflight;
  }
  return s;
}

void EdgePopStats::merge(const EdgePopStats& other) {
  requests += other.requests;
  hits += other.hits;
  misses += other.misses;
  stores += other.stores;
  evictions += other.evictions;
  bytes_served += other.bytes_served;
  revalidated_hits += other.revalidated_hits;
  coalesced += other.coalesced;
  origin_fetches += other.origin_fetches;
  origin_not_modified += other.origin_not_modified;
  origin_errors += other.origin_errors;
  admission_rejects += other.admission_rejects;
  bytes_from_origin += other.bytes_from_origin;
  negative_stores += other.negative_stores;
  negative_hits += other.negative_hits;
  adversary_requests += other.adversary_requests;
  adversary_probes += other.adversary_probes;
  adversary_probe_hits += other.adversary_probe_hits;
  flash_enabled = flash_enabled || other.flash_enabled;
  flash_hits += other.flash_hits;
  flash_coalesced += other.flash_coalesced;
  flash_demotions += other.flash_demotions;
  flash_promotions += other.flash_promotions;
  flash_promotion_rejects += other.flash_promotion_rejects;
  flash_stores += other.flash_stores;
  flash_evictions += other.flash_evictions;
  flash_gc_rewrites += other.flash_gc_rewrites;
  flash_bytes_served += other.flash_bytes_served;
  flash_host_bytes += other.flash_host_bytes;
  flash_device_bytes += other.flash_device_bytes;
  aio_reads += other.aio_reads;
  aio_writes += other.aio_writes;
  aio_merged_reads += other.aio_merged_reads;
  aio_queue_waits += other.aio_queue_waits;
  aio_peak_inflight = std::max(aio_peak_inflight, other.aio_peak_inflight);
}

}  // namespace catalyst::edge
