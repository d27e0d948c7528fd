#include "server/resource.h"
#include "server/site.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "util/hash.h"

namespace catalyst::server {
namespace {

std::unique_ptr<Resource> versioned_resource(const std::string& path) {
  return std::make_unique<Resource>(
      path, http::ResourceClass::Css, 100,
      [path](std::uint64_t version) {
        return path + " content v" + std::to_string(version);
      },
      ChangeProcess::periodic(hours(1), hours(1), days(1)),
      http::CacheControl::with_max_age(minutes(5)));
}

TEST(ResourceTest, ContentFollowsVersion) {
  const auto r = versioned_resource("/a.css");
  EXPECT_EQ(r->version_at(TimePoint{}), 0u);
  EXPECT_EQ(r->content_at(TimePoint{}), "/a.css content v0");
  EXPECT_EQ(r->content_at(TimePoint{} + hours(2)), "/a.css content v2");
}

TEST(ResourceTest, EtagChangesExactlyWithContent) {
  const auto r = versioned_resource("/a.css");
  const auto e0 = r->etag_at(TimePoint{});
  const auto e0b = r->etag_at(TimePoint{} + minutes(30));
  const auto e1 = r->etag_at(TimePoint{} + hours(1));
  EXPECT_EQ(e0, e0b);
  EXPECT_NE(e0.value, e1.value);
}

TEST(ResourceTest, EtagIsHexOfContentDigest) {
  const auto r = versioned_resource("/a.css");
  for (const TimePoint t : {TimePoint{}, TimePoint{} + hours(1)}) {
    char hex[17]{};
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(r->body_at(t).digest()));
    EXPECT_EQ(r->etag_at(t).value, hex);
    EXPECT_EQ(r->body_at(t).digest(), fnv1a64(r->content_at(t)));
  }
}

TEST(ResourceTest, MemoizationReturnsSameBuffer) {
  const auto r = versioned_resource("/a.css");
  const std::string* p1 = &r->content_at(TimePoint{});
  const std::string* p2 = &r->content_at(TimePoint{} + minutes(1));
  EXPECT_EQ(p1, p2);
}

/// What one thread saw of one version: the body buffer and the ETag.
struct VersionView {
  const char* bytes = nullptr;
  std::string etag;
};

/// Starts `threads` threads together; thread i reads `read(i)`.
template <class Read>
std::vector<std::vector<VersionView>> read_together(int threads, Read read) {
  std::vector<std::vector<VersionView>> seen(
      static_cast<std::size_t>(threads));
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(i)] = read(i);
    });
  }
  for (std::thread& t : pool) t.join();
  return seen;
}

TEST(ResourceTest, ThreadsRacingOnOneVersionShareItsBuffer) {
  constexpr int kThreads = 8;
  const auto r = versioned_resource("/a.css");
  const TimePoint at = TimePoint{} + hours(5) + minutes(10);
  const auto seen = read_together(kThreads, [&](int) {
    return std::vector<VersionView>{
        {r->body_at(at).str().data(), r->etag_at(at).value}};
  });
  for (const auto& views : seen) {
    EXPECT_EQ(views[0].bytes, r->body_at(at).str().data());
    EXPECT_EQ(views[0].etag, r->etag_at(at).value);
  }
  EXPECT_EQ(r->content_at(at), "/a.css content v5");
}

TEST(ResourceTest, ThreadsRacingOverEveryVersionShareEachBuffer) {
  constexpr int kThreads = 4;
  const auto r = versioned_resource("/a.css");
  const std::size_t versions = r->changes().total_changes() + 1;
  ASSERT_EQ(versions, 24u);  // changes at 1 h ... 23 h
  const auto time_of = [](std::size_t version) {
    return TimePoint{} + hours(static_cast<std::int64_t>(version)) +
           minutes(30);
  };
  // Each thread walks every version from its own starting point, so most
  // versions are first built by one thread while others race for them.
  const auto seen = read_together(kThreads, [&](int i) {
    std::vector<VersionView> views(versions);
    for (std::size_t k = 0; k < versions; ++k) {
      const std::size_t v = (k + static_cast<std::size_t>(i) * 7) % versions;
      const TimePoint at = time_of(v);
      views[v] = {r->body_at(at).str().data(), r->etag_at(at).value};
    }
    return views;
  });
  for (std::size_t v = 0; v < versions; ++v) {
    const TimePoint at = time_of(v);
    EXPECT_EQ(r->content_at(at), "/a.css content v" + std::to_string(v));
    for (const auto& views : seen) {
      EXPECT_EQ(views[v].bytes, r->body_at(at).str().data()) << v;
      EXPECT_EQ(views[v].etag, r->etag_at(at).value) << v;
    }
    if (v > 0) {
      EXPECT_NE(r->etag_at(at).value, r->etag_at(time_of(v - 1)).value);
    }
  }
  // Past the last change, and past the change horizon, is the last slot.
  const TimePoint last = time_of(versions - 1);
  const TimePoint later = TimePoint{} + days(400);
  EXPECT_EQ(r->version_at(later), versions - 1);
  EXPECT_EQ(&r->body_at(later), &r->body_at(last));
  EXPECT_EQ(&r->etag_at(later), &r->etag_at(last));
}

TEST(ResourceTest, LastModifiedTracksChanges) {
  const auto r = versioned_resource("/a.css");
  EXPECT_EQ(r->last_modified_at(TimePoint{}), TimePoint{});
  EXPECT_EQ(r->last_modified_at(TimePoint{} + hours(3) + minutes(30)),
            TimePoint{} + hours(3));
}

TEST(ResourceTest, RequiresGenerator) {
  EXPECT_THROW(Resource("/x", http::ResourceClass::Other, 1, nullptr,
                        ChangeProcess::never(), http::CacheControl{}),
               std::invalid_argument);
}

TEST(SiteTest, AddAndFind) {
  Site site("example.com");
  site.add_resource(versioned_resource("/a.css"));
  site.add_resource(versioned_resource("/b.css"));
  EXPECT_NE(site.find("/a.css"), nullptr);
  EXPECT_EQ(site.find("/missing"), nullptr);
  EXPECT_EQ(site.resource_count(), 2u);
  EXPECT_EQ(site.total_bytes(), 200u);
}

TEST(SiteTest, DuplicatePathRejected) {
  Site site("example.com");
  site.add_resource(versioned_resource("/a.css"));
  EXPECT_THROW(site.add_resource(versioned_resource("/a.css")),
               std::invalid_argument);
}

TEST(SiteTest, FindWorksFromAnotherThread) {
  Site site("example.com");
  site.add_resource(versioned_resource("/a.css"));
  site.add_resource(versioned_resource("/b.css"));
  const Resource* found = nullptr;
  const Resource* missing = nullptr;
  std::thread reader([&] {
    found = site.find("/b.css");
    missing = site.find("/missing");
  });
  reader.join();
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->path(), "/b.css");
  EXPECT_EQ(missing, nullptr);
}

TEST(SiteTest, ResourcesStayInPathOrderWhateverTheAddOrder) {
  const std::vector<std::string> sorted = {"/a.css", "/b.js", "/c/d.png",
                                           "/index.html", "/z.css"};
  const std::vector<std::string> reversed(sorted.rbegin(), sorted.rend());
  const std::vector<std::string> shuffled = {"/index.html", "/z.css",
                                             "/a.css", "/c/d.png", "/b.js"};
  for (const auto& order : {reversed, shuffled}) {
    Site site("example.com");
    for (std::size_t i = 0; i < order.size(); ++i) {
      site.add_resource(versioned_resource(order[i]));
      for (std::size_t j = 0; j < order.size(); ++j) {
        const Resource* found = site.find(order[j]);
        if (j <= i) {
          ASSERT_NE(found, nullptr) << order[j];
          EXPECT_EQ(found->path(), order[j]);
        } else {
          EXPECT_EQ(found, nullptr) << order[j];
        }
      }
    }
    std::vector<std::string> paths;
    for (const auto& [path, resource] : site.resources()) {
      EXPECT_EQ(resource->path(), path);
      paths.push_back(path);
    }
    EXPECT_EQ(paths, sorted);
  }
}

TEST(SiteTest, IndexPathDefaultsAndOverrides) {
  Site site("example.com");
  EXPECT_EQ(site.index_path(), "/index.html");
  site.set_index_path("/");
  EXPECT_EQ(site.index_path(), "/");
}

}  // namespace
}  // namespace catalyst::server
