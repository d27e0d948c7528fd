// One edge point of presence: the shared, capacity-bounded cache state a
// whole population of users behind the same PoP sees.
//
// An EdgePop is pure state + policy — SLRU storage, TinyLFU admission,
// RFC 9111 shared-cache semantics (no-store and private are refused,
// stale entries revalidate upstream), and Catalyst-awareness: base HTML
// is cached together with its X-Etag-Config map, and an origin 304
// refreshes the stored map so revisits can be answered entirely from the
// edge. It holds no network references, so it outlives the per-user
// testbeds that attach to it (see EdgeNode) and accumulates cache state
// across every user mapped to the PoP.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cache/entry.h"
#include "cache/freshness.h"
#include "edge/flash.h"
#include "edge/slru.h"
#include "edge/tinylfu.h"
#include "util/rng.h"
#include "util/types.h"

namespace catalyst::edge {

struct EdgeConfig {
  int pop_id = 0;

  /// RAM-store byte budget of this PoP.
  ByteCount capacity = MiB(64);

  /// TinyLFU admission (off = plain SLRU fills, the ablation arm).
  bool tinylfu_admission = true;

  /// Flash tier behind the RAM SLRU (capacity 0 — the default — means
  /// RAM-only, byte-identical to pre-flash builds). Admission is RAM
  /// eviction; reads are asynchronous through io::AioEngine.
  FlashConfig flash;

  /// Negative caching of origin 404/410s at the edge (off by default).
  cache::NegativePolicy negative;

  /// PLANTED VULNERABILITY for the security oracle (difftest
  /// `--mutate unkeyed-header`): when set, the edge cache key ignores
  /// unkeyed request inputs (X-Forwarded-Host), so a response the origin
  /// derived from one client's header is served to every client. Strict
  /// keying — the default — partitions the cache by that input.
  bool vulnerable_keying = false;
};

/// Fleet-level description of an edge tier: how many PoPs front the
/// origins and how each is provisioned. pops == 0 (the default) means no
/// edge tier anywhere — topologies, replays and reports are untouched.
struct EdgeTierParams {
  int pops = 0;
  ByteCount capacity = MiB(64);
  Duration origin_rtt = milliseconds(30);
  bool admission = true;  // TinyLFU on/off (ablation)

  /// Per-PoP flash tier (0 = RAM-only PoPs, pre-flash byte-identical).
  ByteCount flash_capacity = 0;
  Duration flash_read_latency = microseconds(100);
  int flash_queue_depth = 8;

  /// Negative caching at every PoP (see cache::NegativePolicy).
  cache::NegativePolicy negative;

  /// Vulnerable (unkeyed-input) cache keying — the planted poisoning bug.
  bool vulnerable_keying = false;

  bool enabled() const { return pops > 0; }
  bool flash_enabled() const { return enabled() && flash_capacity > 0; }
};

/// One PoP's tally, and the sum of several (fleet reports merge them per
/// PoP and across PoPs). Every request resolves as exactly one of hits /
/// flash_hits / revalidated_hits / misses, so requests always equals their
/// sum (flash_hits is zero whenever the flash tier is disabled).
struct EdgePopStats {
  std::uint64_t requests = 0;           // client requests handled
  std::uint64_t hits = 0;               // served fresh from RAM
  std::uint64_t misses = 0;             // nothing usable stored
  std::uint64_t stores = 0;             // entries written
  std::uint64_t evictions = 0;          // RAM entries removed to make room
  ByteCount bytes_served = 0;           // wire bytes answered from RAM
  std::uint64_t revalidated_hits = 0;   // served after an origin 304
  std::uint64_t coalesced = 0;          // requests that joined an in-flight fill
  std::uint64_t origin_fetches = 0;     // upstream fetches launched
  std::uint64_t origin_not_modified = 0;
  std::uint64_t origin_errors = 0;      // upstream exchanges that failed
  std::uint64_t admission_rejects = 0;  // TinyLFU refused a fill
  ByteCount bytes_from_origin = 0;      // upstream response bytes

  // Negative caching (zero when EdgeConfig::negative is disabled).
  std::uint64_t negative_stores = 0;  // 404/410 bodies admitted
  std::uint64_t negative_hits = 0;    // errors answered without the origin

  // Adversarial traffic observed (zero without `fleetsim --adversary`).
  std::uint64_t adversary_requests = 0;  // poisoning strikes handled
  std::uint64_t adversary_probes = 0;    // timing probes handled
  std::uint64_t adversary_probe_hits = 0;  // probes that read a hit

  // Flash tier (all zero and flash_enabled false when EdgeConfig::flash
  // is disabled; reports print the flash block only when it is set).
  bool flash_enabled = false;
  std::uint64_t flash_hits = 0;        // served fresh from flash bytes
  std::uint64_t flash_coalesced = 0;   // joined an in-flight flash read
  std::uint64_t flash_demotions = 0;   // RAM evictions handed to flash
  std::uint64_t flash_promotions = 0;  // flash reads re-admitted to RAM
  std::uint64_t flash_promotion_rejects = 0;  // TinyLFU kept it in flash
  std::uint64_t flash_stores = 0;      // flash records written
  std::uint64_t flash_evictions = 0;   // records GC dropped
  std::uint64_t flash_gc_rewrites = 0; // records GC salvaged (write amp)
  ByteCount flash_bytes_served = 0;    // wire bytes answered from flash
  ByteCount flash_host_bytes = 0;      // host bytes written to flash
  ByteCount flash_device_bytes = 0;    // device bytes written (incl. GC)

  // The flash device queue (io::AioStats of the PoP's engine).
  std::uint64_t aio_reads = 0;
  std::uint64_t aio_writes = 0;
  std::uint64_t aio_merged_reads = 0;
  std::uint64_t aio_queue_waits = 0;
  std::uint64_t aio_peak_inflight = 0;  // merged as a max, not a sum

  double flash_write_amp() const {
    return flash_host_bytes == 0
               ? 1.0
               : static_cast<double>(flash_device_bytes) /
                     static_cast<double>(flash_host_bytes);
  }

  /// Fraction of requests answered without fetching a body upstream —
  /// the origin-offload headline number.
  double origin_offload_pct() const {
    return requests == 0
               ? 0.0
               : 100.0 * static_cast<double>(requests - origin_fetches) /
                     static_cast<double>(requests);
  }

  /// Adds `other` in: every counter sums, except aio_peak_inflight (the
  /// larger one) and flash_enabled (either one).
  void merge(const EdgePopStats& other);
};

/// Headers an origin 304 refreshes on a stored entry, and an edge-served
/// 304 carries downstream: validators, freshness metadata, and the
/// Catalyst validity map.
bool carried_on_304(std::string_view name);

enum class EdgeLookupDecision {
  Miss,   // nothing stored / nothing validatable
  Fresh,  // serve stored bytes, zero origin cost
  Stale,  // stored + validator: conditional GET upstream
};

struct EdgeLookupResult {
  EdgeLookupDecision decision = EdgeLookupDecision::Miss;
  /// Stored entry for Fresh/Stale; owned by the pop. Valid until the
  /// entry is erased, replaced, evicted or moved between SLRU segments
  /// (see SlruStore::get), so read it before mutating the pop.
  cache::CacheEntry* entry = nullptr;
};

/// What an async flash read found once the device completed it. The
/// entry may have been superseded or GC-evicted while the op was queued,
/// so the completion re-classifies rather than trusting the submit-time
/// lookup.
enum class FlashReadOutcome {
  Gone,   // evicted/superseded while the read was in flight
  Fresh,  // serve flash bytes (promoted to RAM when TinyLFU agrees)
  Stale,  // validators present: conditional GET upstream
  Miss,   // stored but unvalidatable: treat as a plain miss
};

struct FlashReadResult {
  FlashReadOutcome outcome = FlashReadOutcome::Gone;
  /// Entry for Fresh/Stale. Fresh entries promoted to RAM point into the
  /// RAM store (valid as EdgeLookupResult::entry is); everything else
  /// points into the flash log (valid as FlashTier::get's pointer is).
  /// Read it before mutating either tier.
  cache::CacheEntry* entry = nullptr;
};

class EdgePop {
 public:
  explicit EdgePop(EdgeConfig config);

  /// Host name this PoP registers on simulated networks: "edge.pop<id>".
  const std::string& host_name() const { return host_name_; }
  const EdgeConfig& config() const { return config_; }

  /// Classifies a stored entry for `key` at `now`. Entries stored "in the
  /// future" (user-major fleet replay runs users sequentially, so shared
  /// state can be ahead of the next user's clock) are treated as stale so
  /// they revalidate instead of serving content from the future.
  EdgeLookupResult lookup(const std::string& key, TimePoint now);

  /// Stores an origin response if the shared-cache storability rule
  /// (cache::is_storable) and TinyLFU admission allow. Returns true when
  /// stored. When the flash tier is enabled, RAM victims demote to flash
  /// instead of evaporating; `aio` (when given) accounts the resulting
  /// device writes.
  bool admit_and_store(const std::string& key, http::Response response,
                       TimePoint request_time, TimePoint response_time,
                       io::AioEngine* aio = nullptr);

  /// Applies an origin 304: refreshes validators, freshness headers, and
  /// — the Catalyst-aware part — the X-Etag-Config map, so edge-served
  /// revisits carry the origin's current subresource validity map.
  /// Returns the refreshed entry, or nullptr if nothing is stored.
  cache::CacheEntry* refresh_not_modified(const std::string& key,
                                          const http::Response& not_modified,
                                          TimePoint request_time,
                                          TimePoint response_time);

  // ---- Flash tier (all no-ops / false / null when flash is disabled) ----

  FlashTier* flash() { return flash_.get(); }
  Rng& flash_rng() { return flash_rng_; }
  io::AioStats& aio_stats() { return aio_stats_; }

  /// True when `key` is absent from RAM but present in the flash log —
  /// the signal EdgeNode uses to start an async flash read on a RAM miss.
  bool flash_has(const std::string& key) const {
    return flash_ != nullptr && flash_->contains(key);
  }

  /// Wire size of the flash record for `key` (0 when absent) — the byte
  /// count the async read is charged for.
  ByteCount flash_entry_cost(const std::string& key) const;

  /// Re-classifies the flash record for `key` after its device read
  /// completed. Fresh records are promoted to RAM when TinyLFU agrees
  /// (demoting RAM victims back to flash via `aio`); unvalidatable stale
  /// records are dropped from both tiers and reported as Miss.
  FlashReadResult complete_flash_read(const std::string& key, TimePoint now,
                                      io::AioEngine* aio);

  void note_flash_hit(ByteCount bytes_served) {
    ++stats_.flash_hits;
    stats_.flash_bytes_served += bytes_served;
  }
  void note_flash_coalesced() { ++stats_.flash_coalesced; }

  // Telemetry notes — EdgeNode calls these at the semantically right
  // moments so `requests == hits + revalidated_hits + misses` holds.
  void note_request(const std::string& key);
  void note_hit(ByteCount bytes_served);
  void note_revalidated_hit(ByteCount bytes_served);
  void note_miss() { ++stats_.misses; }
  void note_coalesced() { ++stats_.coalesced; }
  void note_origin_fetch() { ++stats_.origin_fetches; }
  void note_origin_response(ByteCount bytes) {
    stats_.bytes_from_origin += bytes;
  }
  void note_origin_not_modified() { ++stats_.origin_not_modified; }
  void note_origin_error() { ++stats_.origin_errors; }
  void note_adversary_request() { ++stats_.adversary_requests; }
  void note_adversary_probe(bool hit) {
    ++stats_.adversary_probes;
    if (hit) ++stats_.adversary_probe_hits;
  }

  /// Snapshot with the store's eviction count and — when the flash tier
  /// exists — the flash log's and device queue's counters folded in.
  EdgePopStats stats() const;

 private:
  /// Shared freshness classification for stored entries in either tier:
  /// the future-fill guard, then the bounded negative lifetime for stored
  /// 404/410s, then RFC 9111 §4.2 for everything else.
  bool entry_is_fresh(const cache::CacheEntry& entry, TimePoint now) const;

  /// Evicts RAM victims until `cost` more bytes fit, unless TinyLFU
  /// vetoes: a candidate may only displace victims it has out-requested.
  /// With a flash tier, victims demote to the log instead of evaporating.
  /// Returns false on a veto.
  bool make_room(const std::string& key, ByteCount cost, io::AioEngine* aio);

  /// Hands a RAM eviction victim to the flash log (admission-by-demotion)
  /// and accounts the device write on `aio` when given.
  void demote_to_flash(const std::string& victim_key, io::AioEngine* aio);

  EdgeConfig config_;
  std::string host_name_;
  SlruStore store_;
  TinyLfuAdmission admission_;
  EdgePopStats stats_;

  /// Flash tier state. The tier, its latency-jitter RNG and the device
  /// queue telemetry live here (not in EdgeNode) so they persist across
  /// the per-user testbeds that bind to this PoP — mirroring how the
  /// SLRU accumulates state across users.
  std::unique_ptr<FlashTier> flash_;
  Rng flash_rng_;
  io::AioStats aio_stats_;
};

}  // namespace catalyst::edge
