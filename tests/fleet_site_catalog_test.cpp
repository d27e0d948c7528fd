// A fleet run's site catalog: shards running at the same time share one
// Site per index, and a site nobody holds is generated again, with the
// same bytes.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "fleet/shard.h"

namespace catalyst::fleet {
namespace {

/// A live catalog (content changes over the horizon), so bodies span
/// several versions.
UserModelParams live_catalog() {
  UserModelParams params;
  params.clone_static_snapshot = false;
  return params;
}

/// Every body digest the site serves at a few instants, in path order.
std::vector<std::uint64_t> digests(const server::Site& site) {
  std::vector<std::uint64_t> out;
  for (const auto& entry : site.resources()) {
    for (const TimePoint at :
         {TimePoint{}, TimePoint{} + days(3), TimePoint{} + days(29)}) {
      out.push_back(entry.resource->body_at(at).digest());
    }
  }
  return out;
}

TEST(SiteCatalogTest, AcquisitionsWhileHeldShareOneSite) {
  SiteCatalog catalog(live_catalog());
  const auto first = catalog.acquire(3);
  const auto again = catalog.acquire(3);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_NE(catalog.acquire(4).get(), first.get());
  EXPECT_EQ(first->host(), "site03.example");
}

TEST(SiteCatalogTest, ReleasedSiteIsRebuiltWithTheSameBodies) {
  SiteCatalog catalog(live_catalog());
  auto first = catalog.acquire(3);
  const std::vector<std::uint64_t> before = digests(*first);
  ASSERT_FALSE(before.empty());
  // The catalog keeps no site alive: once its holder lets go, the next
  // acquisition builds a new Site. (`gone` keeps the old allocation, so
  // the new Site cannot reuse its address.)
  const std::weak_ptr<server::Site> gone = first;
  const server::Site* old_site = first.get();
  first.reset();
  EXPECT_TRUE(gone.expired());
  const auto rebuilt = catalog.acquire(3);
  EXPECT_NE(rebuilt.get(), old_site);
  EXPECT_EQ(digests(*rebuilt), before);
}

TEST(SiteCatalogTest, ConcurrentAcquisitionsGetOneSite) {
  constexpr int kThreads = 4;
  SiteCatalog catalog(live_catalog());
  std::vector<std::shared_ptr<server::Site>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(i)] = catalog.acquire(5);
      // Serve from the shared site at once: its versions are built by
      // whichever thread asks first.
      digests(*got[static_cast<std::size_t>(i)]);
    });
  }
  for (std::thread& t : pool) t.join();
  for (const auto& site : got) EXPECT_EQ(site.get(), got[0].get());
}

}  // namespace
}  // namespace catalyst::fleet
