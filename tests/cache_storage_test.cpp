#include "cache/storage.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace catalyst::cache {
namespace {

CacheEntry entry_of_size(std::size_t body_bytes) {
  CacheEntry entry;
  entry.response = http::Response::make(http::Status::Ok);
  entry.response.body = std::string(body_bytes, 'x');
  return entry;
}

TEST(LruStoreTest, PutGetRoundTrip) {
  LruStore store(KiB(64));
  EXPECT_TRUE(store.put("a", entry_of_size(100)));
  ASSERT_NE(store.get("a"), nullptr);
  EXPECT_EQ(store.get("a")->response.body.size(), 100u);
  EXPECT_EQ(store.get("missing"), nullptr);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(LruStoreTest, PutReplacesExisting) {
  LruStore store(KiB(64));
  store.put("a", entry_of_size(100));
  store.put("a", entry_of_size(200));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.get("a")->response.body.size(), 200u);
}

TEST(LruStoreTest, EvictsLeastRecentlyUsed) {
  // Each entry costs body + head + 64 bookkeeping; size the store for
  // roughly three entries.
  LruStore store(3000);
  store.put("a", entry_of_size(700));
  store.put("b", entry_of_size(700));
  store.put("c", entry_of_size(700));
  // Touch "a" so "b" becomes the LRU victim.
  ASSERT_NE(store.get("a"), nullptr);
  store.put("d", entry_of_size(700));
  EXPECT_NE(store.get("a"), nullptr);
  EXPECT_EQ(store.get("b"), nullptr);  // evicted
  EXPECT_NE(store.get("c"), nullptr);
  EXPECT_NE(store.get("d"), nullptr);
}

TEST(LruStoreTest, PeekDoesNotTouchRecency) {
  LruStore store(3000);
  store.put("a", entry_of_size(700));
  store.put("b", entry_of_size(700));
  store.put("c", entry_of_size(700));
  ASSERT_NE(store.peek("a"), nullptr);  // peek must NOT refresh "a"
  store.put("d", entry_of_size(700));
  EXPECT_EQ(store.get("a"), nullptr);  // still evicted as true LRU
}

TEST(LruStoreTest, OversizedEntryRejected) {
  LruStore store(100);
  EXPECT_FALSE(store.put("big", entry_of_size(500)));
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST(LruStoreTest, SizeAccountingConsistent) {
  LruStore store(KiB(64));
  store.put("a", entry_of_size(100));
  store.put("b", entry_of_size(200));
  const ByteCount before = store.size_bytes();
  EXPECT_GT(before, 300u);
  store.erase("a");
  EXPECT_LT(store.size_bytes(), before);
  store.erase("b");
  EXPECT_EQ(store.size_bytes(), 0u);
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST(LruStoreTest, EraseReturnsWhetherPresent) {
  LruStore store(KiB(4));
  store.put("a", entry_of_size(10));
  EXPECT_TRUE(store.erase("a"));
  EXPECT_FALSE(store.erase("a"));
}

TEST(LruStoreTest, MruOrderReflectsAccess) {
  LruStore store(KiB(64));
  store.put("a", entry_of_size(10));
  store.put("b", entry_of_size(10));
  store.get("a");
  const auto keys = store.keys_mru_order();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(LruStoreTest, LookupWorksFromAnotherThread) {
  LruStore store(KiB(64));
  store.put("a", entry_of_size(100));
  store.put("b", entry_of_size(200));
  const CacheEntry* peeked = nullptr;
  const CacheEntry* got = nullptr;
  std::thread reader([&] {
    peeked = store.peek("a");
    got = store.get("b");
  });
  reader.join();
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->response.body.size(), 100u);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->response.body.size(), 200u);
}

TEST(LruStoreTest, KeysStayRightAfterReplaceAndEviction) {
  LruStore store(3000);  // room for three 700-byte entries, not four
  store.put("a", entry_of_size(700));
  store.put("b", entry_of_size(700));
  store.put("c", entry_of_size(700));
  EXPECT_EQ(store.lru_key(), "a");

  // Replacing "a" drops the old entry and puts the new one in front.
  store.put("a", entry_of_size(600));
  EXPECT_EQ(store.lru_key(), "b");
  EXPECT_EQ(store.keys_mru_order(),
            (std::vector<std::string>{"a", "c", "b"}));

  // "d" evicts the LRU "b".
  store.put("d", entry_of_size(700));
  EXPECT_EQ(store.get("b"), nullptr);
  EXPECT_EQ(store.lru_key(), "c");
  EXPECT_EQ(store.keys_mru_order(),
            (std::vector<std::string>{"d", "a", "c"}));
  EXPECT_EQ(store.entry_count(), 3u);
}

TEST(LruStoreTest, TakeMovesTheEntryOut) {
  LruStore store(KiB(64));
  store.put("a", entry_of_size(100));
  store.put("b", entry_of_size(200));
  const ByteCount with_both = store.size_bytes();

  std::optional<CacheEntry> taken = store.take("a");
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->response.body.size(), 100u);
  EXPECT_EQ(store.size_bytes(), with_both - taken->cost());
  EXPECT_EQ(store.peek("a"), nullptr);
  EXPECT_EQ(store.keys_mru_order(), (std::vector<std::string>{"b"}));
  EXPECT_FALSE(store.take("a").has_value());

  // The taken entry goes back in like any other.
  ASSERT_TRUE(store.put("a", std::move(*taken)));
  EXPECT_EQ(store.size_bytes(), with_both);
  EXPECT_EQ(store.lru_key(), "b");
}

TEST(LruStoreTest, EntryPointerOutlivesOtherKeysMutations) {
  LruStore store(3000);  // room for three 700-byte entries
  store.put("a", entry_of_size(700));
  const CacheEntry* a = store.peek("a");
  ASSERT_NE(a, nullptr);
  store.put("b", entry_of_size(700));
  ASSERT_NE(store.get("b"), nullptr);
  store.erase("b");
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(store.get("a"), a);  // keeps "a" out of the eviction path
    store.put("k" + std::to_string(i), entry_of_size(700));
  }
  EXPECT_EQ(store.peek("a"), a);
  EXPECT_EQ(a->response.body.size(), 700u);
}

}  // namespace
}  // namespace catalyst::cache
