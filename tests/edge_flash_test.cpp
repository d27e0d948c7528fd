// Flash tier unit + EdgePop two-tier data-path tests: log-structured
// supersede/GC accounting, admission-by-demotion, promotion back to RAM
// (and the TinyLFU veto that keeps cold reads on flash), and the
// completion-time re-classification of records that aged while queued.
#include <gtest/gtest.h>

#include <string>

#include "edge/flash.h"
#include "edge/pop.h"
#include "http/headers.h"

namespace catalyst::edge {
namespace {

http::Response response_with(std::size_t body_bytes,
                             const std::string& cache_control,
                             const std::string& etag = "") {
  http::Response resp = http::Response::make(http::Status::Ok);
  resp.body = std::string(body_bytes, 'x');
  resp.headers.set(http::kCacheControl, cache_control);
  if (!etag.empty()) resp.headers.set(http::kEtagHeader, etag);
  return resp;
}

cache::CacheEntry entry_with(std::size_t body_bytes,
                             const std::string& cache_control = "max-age=60",
                             const std::string& etag = "\"f\"",
                             TimePoint stored_at = TimePoint{}) {
  cache::CacheEntry entry;
  entry.response = response_with(body_bytes, cache_control, etag);
  entry.request_time = stored_at;
  entry.response_time = stored_at;
  return entry;
}

FlashConfig small_flash(ByteCount capacity = KiB(16)) {
  FlashConfig config;
  config.capacity = capacity;  // segment auto-clamps to capacity/4
  return config;
}

TEST(FlashTierTest, PutGetEraseAccountLiveAndLogBytes) {
  FlashTier tier(small_flash(MiB(1)));
  ASSERT_TRUE(tier.put("a", entry_with(1000)));
  ASSERT_TRUE(tier.put("b", entry_with(1000)));
  EXPECT_TRUE(tier.contains("a"));
  EXPECT_TRUE(tier.contains("b"));
  ASSERT_NE(tier.get("a"), nullptr);
  EXPECT_EQ(tier.peek("a")->response.body.size(), 1000u);
  EXPECT_EQ(tier.log_bytes(), tier.stats().host_bytes_written);

  // Erase marks the record dead in place: the index forgets it but the
  // log keeps its bytes until GC reclaims the segment, so the one live
  // record ("b") holds less than the log.
  const ByteCount log_before = tier.log_bytes();
  EXPECT_TRUE(tier.erase("a"));
  EXPECT_FALSE(tier.contains("a"));
  EXPECT_EQ(tier.get("a"), nullptr);
  ASSERT_TRUE(tier.contains("b"));
  EXPECT_EQ(tier.log_bytes(), log_before);
  EXPECT_LT(tier.peek("b")->cost(), tier.log_bytes());
  EXPECT_FALSE(tier.erase("a"));  // already dead
}

TEST(FlashTierTest, PutSupersedesDeadInPlace) {
  FlashTier tier(small_flash(MiB(1)));
  ASSERT_TRUE(tier.put("k", entry_with(1000)));
  const ByteCount log_one = tier.log_bytes();
  ASSERT_TRUE(tier.put("k", entry_with(2000)));
  EXPECT_EQ(tier.peek("k")->response.body.size(), 2000u);
  // Log caches never update in place: the old record's bytes stay on the
  // log next to the new record's.
  EXPECT_EQ(tier.log_bytes(), log_one + tier.peek("k")->cost());
  EXPECT_EQ(tier.stats().stores, 2u);
}

TEST(FlashTierTest, RejectsEntryLargerThanCapacity) {
  FlashTier tier(small_flash(KiB(16)));
  EXPECT_FALSE(tier.put("huge", entry_with(64 * 1024)));
  EXPECT_FALSE(tier.contains("huge"));
  EXPECT_EQ(tier.log_bytes(), 0u);
  EXPECT_EQ(tier.stats().stores, 0u);
}

TEST(FlashTierTest, GcSalvagesReferencedRecordsAndAmplifiesWrites) {
  const FlashConfig config = small_flash(KiB(16));
  FlashTier tier(config);
  ASSERT_TRUE(tier.put("hot", entry_with(1000)));
  // Fill past capacity with one-touch records, re-referencing "hot" so
  // every GC round salvages it instead of evicting it.
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(tier.get("hot"), nullptr) << "lost at record " << i;
    ASSERT_TRUE(tier.put("cold-" + std::to_string(i), entry_with(1000)));
  }
  EXPECT_LE(tier.log_bytes(), config.capacity);
  EXPECT_TRUE(tier.contains("hot"));

  const FlashStats& stats = tier.stats();
  EXPECT_GT(stats.gc_rewrites, 0u);   // "hot" was salvaged at least once
  EXPECT_GT(stats.evictions, 0u);     // unreferenced cold records died
  // Salvages are device writes with no host write behind them.
  EXPECT_GT(stats.device_bytes_written, stats.host_bytes_written);
  EXPECT_GT(stats.write_amp(), 1.0);
}

// ---- EdgePop two-tier data path ----

EdgeConfig two_tier_config(bool tinylfu = false) {
  EdgeConfig config;
  config.capacity = 8 * 1024;  // fits roughly three ~2 KiB entries
  config.tinylfu_admission = tinylfu;
  config.flash.capacity = MiB(1);
  return config;
}

TEST(EdgePopFlashTest, RamEvictionDemotesVictimToFlash) {
  EdgePop pop(two_tier_config());
  const TimePoint t0{};
  ASSERT_NE(pop.flash(), nullptr);

  for (int i = 0; i < 6; ++i) {
    const std::string key = "origin/asset-" + std::to_string(i);
    pop.note_request(key);
    ASSERT_TRUE(pop.admit_and_store(
        key, response_with(2000, "max-age=60", "\"e\""), t0, t0));
  }
  const EdgePopStats stats = pop.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.flash_demotions, stats.evictions);
  EXPECT_EQ(stats.flash_stores, stats.flash_demotions);
  EXPECT_GT(stats.flash_host_bytes, 0u);

  // The early victims now live in flash — and ONLY in flash (tier
  // exclusivity): anything still in RAM must be absent from the log.
  // Every entry is fresh, so a RAM lookup finds it exactly when RAM
  // holds it.
  EXPECT_TRUE(pop.flash_has("origin/asset-0"));
  EXPECT_GT(pop.flash_entry_cost("origin/asset-0"), 0u);
  for (int i = 0; i < 6; ++i) {
    const std::string key = "origin/asset-" + std::to_string(i);
    const bool in_ram =
        pop.lookup(key, t0).decision == EdgeLookupDecision::Fresh;
    EXPECT_NE(in_ram, pop.flash_has(key)) << key;
  }
}

TEST(EdgePopFlashTest, FreshFlashReadPromotesToRam) {
  EdgePop pop(two_tier_config());
  const TimePoint t0{};
  ASSERT_TRUE(pop.flash()->put("origin/warm.js", entry_with(2000)));

  const FlashReadResult rr =
      pop.complete_flash_read("origin/warm.js", t0, /*aio=*/nullptr);
  EXPECT_EQ(rr.outcome, FlashReadOutcome::Fresh);
  ASSERT_NE(rr.entry, nullptr);
  EXPECT_EQ(rr.entry->response.body.size(), 2000u);

  // Promoted: the next lookup is a plain RAM hit, the flash copy is gone.
  EXPECT_EQ(pop.lookup("origin/warm.js", t0).decision,
            EdgeLookupDecision::Fresh);
  EXPECT_FALSE(pop.flash_has("origin/warm.js"));
  EXPECT_EQ(pop.stats().flash_promotions, 1u);
}

TEST(EdgePopFlashTest, TinyLfuVetoServesFromFlashWithoutPromoting) {
  EdgePop pop(two_tier_config(/*tinylfu=*/true));
  const TimePoint t0{};

  // Fill RAM with objects the admission filter has seen repeatedly.
  for (int i = 0; i < 3; ++i) {
    const std::string key = "origin/hot-" + std::to_string(i);
    for (int r = 0; r < 5; ++r) pop.note_request(key);
    ASSERT_TRUE(pop.admit_and_store(
        key, response_with(2000, "max-age=60", "\"h\""), t0, t0));
  }
  // A flash record the filter has never heard of cannot displace them.
  ASSERT_TRUE(pop.flash()->put("origin/cold.js", entry_with(2000)));

  const FlashReadResult rr =
      pop.complete_flash_read("origin/cold.js", t0, /*aio=*/nullptr);
  EXPECT_EQ(rr.outcome, FlashReadOutcome::Fresh);
  ASSERT_NE(rr.entry, nullptr);  // bytes still get served — from flash
  EXPECT_TRUE(pop.flash_has("origin/cold.js"));
  EXPECT_EQ(pop.lookup("origin/cold.js", t0).decision,
            EdgeLookupDecision::Miss);
  const EdgePopStats stats = pop.stats();
  EXPECT_EQ(stats.flash_promotions, 0u);
  EXPECT_EQ(stats.flash_promotion_rejects, 1u);
  // The RAM residents survived the attempted promotion.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pop.lookup("origin/hot-" + std::to_string(i), t0).decision,
              EdgeLookupDecision::Fresh);
  }
}

TEST(EdgePopFlashTest, ExpiredValidatableFlashRecordIsStale) {
  EdgePop pop(two_tier_config());
  const TimePoint t0{};
  ASSERT_TRUE(pop.flash()->put(
      "origin/old.css", entry_with(1500, "max-age=60", "\"v1\"", t0)));

  const FlashReadResult rr =
      pop.complete_flash_read("origin/old.css", t0 + hours(1), nullptr);
  EXPECT_EQ(rr.outcome, FlashReadOutcome::Stale);
  ASSERT_NE(rr.entry, nullptr);  // validators ride the conditional GET
  EXPECT_TRUE(pop.flash_has("origin/old.css"));  // kept pending the 304
}

TEST(EdgePopFlashTest, ExpiredUnvalidatableFlashRecordIsDropped) {
  EdgePop pop(two_tier_config());
  const TimePoint t0{};
  ASSERT_TRUE(pop.flash()->put(
      "origin/junk.bin", entry_with(1500, "max-age=60", /*etag=*/"", t0)));

  const FlashReadResult rr =
      pop.complete_flash_read("origin/junk.bin", t0 + hours(1), nullptr);
  EXPECT_EQ(rr.outcome, FlashReadOutcome::Miss);
  // Expired with nothing to revalidate: dead weight, erased from the log.
  EXPECT_FALSE(pop.flash_has("origin/junk.bin"));
}

TEST(EdgePopFlashTest, AbsentRecordCompletesAsGone) {
  EdgePop pop(two_tier_config());
  const FlashReadResult rr =
      pop.complete_flash_read("origin/nope.js", TimePoint{}, nullptr);
  EXPECT_EQ(rr.outcome, FlashReadOutcome::Gone);
  EXPECT_EQ(rr.entry, nullptr);
}

TEST(EdgePopFlashTest, RefreshNotModifiedReachesFlashRecords) {
  EdgePop pop(two_tier_config());
  const TimePoint t0{};
  ASSERT_TRUE(pop.flash()->put(
      "origin/page.html", entry_with(1500, "max-age=60", "\"v1\"", t0)));

  http::Response not_modified = http::Response::make(http::Status::NotModified);
  not_modified.headers.set(http::kEtagHeader, "\"v2\"");
  not_modified.headers.set(http::kCacheControl, "max-age=120");
  cache::CacheEntry* refreshed = pop.refresh_not_modified(
      "origin/page.html", not_modified, t0 + hours(1), t0 + hours(1));
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->etag()->value, "v2");
  // Refreshed in place on flash: now fresh again for a later read.
  const FlashReadResult rr =
      pop.complete_flash_read("origin/page.html", t0 + hours(1), nullptr);
  EXPECT_EQ(rr.outcome, FlashReadOutcome::Fresh);
}

TEST(EdgePopFlashTest, DisabledFlashKeepsPopInert) {
  EdgePop pop(EdgeConfig{});  // flash.capacity == 0
  EXPECT_EQ(pop.flash(), nullptr);
  EXPECT_FALSE(pop.flash_has("anything"));
  EXPECT_EQ(pop.flash_entry_cost("anything"), 0u);
  EXPECT_EQ(pop.complete_flash_read("anything", TimePoint{}, nullptr).outcome,
            FlashReadOutcome::Gone);
  const EdgePopStats stats = pop.stats();
  EXPECT_EQ(stats.flash_demotions, 0u);
  EXPECT_EQ(stats.flash_stores, 0u);
  EXPECT_EQ(stats.aio_reads, 0u);
  EXPECT_FALSE(stats.flash_enabled);
}

}  // namespace
}  // namespace catalyst::edge
