#include "http/etag_config.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "http/headers.h"

namespace catalyst::http {
namespace {

TEST(EtagConfigTest, EncodeDecodeRoundTrip) {
  EtagConfig config;
  config.add("/a.css", Etag{"abc", false});
  config.add("/b.js", Etag{"def", true});
  config.add("/img/pic one.webp", Etag{"ghi", false});
  const auto parsed = EtagConfig::parse(config.encode());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->find("/a.css"), (Etag{"abc", false}));
  EXPECT_EQ(parsed->find("/b.js"), (Etag{"def", true}));
  EXPECT_FALSE(parsed->find("/missing"));
}

TEST(EtagConfigTest, EncodedFormIsCompactJson) {
  EtagConfig config;
  config.add("/a", Etag{"x", false});
  EXPECT_EQ(config.encode(), "{\"/a\":\"\\\"x\\\"\"}");
}

TEST(EtagConfigTest, EmptyMap) {
  EtagConfig config;
  EXPECT_TRUE(config.empty());
  EXPECT_EQ(config.encode(), "{}");
  const auto parsed = EtagConfig::parse("{}");
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->empty());
}

TEST(EtagConfigTest, MalformedJsonRejected) {
  EXPECT_FALSE(EtagConfig::parse(""));
  EXPECT_FALSE(EtagConfig::parse("not json"));
  EXPECT_FALSE(EtagConfig::parse("[1,2]"));
  EXPECT_FALSE(EtagConfig::parse("{\"a\":42}"));  // non-string value
}

TEST(EtagConfigTest, EntriesWithBadEtagsDroppedNotFatal) {
  const auto parsed = EtagConfig::parse(
      "{\"/good\":\"\\\"ok\\\"\",\"/bad\":\"no-quotes\"}");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_TRUE(parsed->find("/good"));
  EXPECT_FALSE(parsed->find("/bad"));
}

TEST(EtagConfigTest, HeaderWireSizeGrowsWithEntries) {
  EtagConfig small, large;
  small.add("/a", Etag{"0123456789abcdef", false});
  for (int i = 0; i < 100; ++i) {
    large.add("/assets/resource" + std::to_string(i) + ".css",
              Etag{"0123456789abcdef", false});
  }
  EXPECT_GT(large.header_wire_size(), small.header_wire_size());
  // Rough scale: each entry costs ~path + etag + JSON syntax.
  EXPECT_GT(large.header_wire_size(), 100u * 30u);
  EXPECT_LT(large.header_wire_size(), 100u * 80u);
}

TEST(EtagConfigTest, LastAddWinsForDuplicatePaths) {
  EtagConfig config;
  config.add("/a", Etag{"old", false});
  config.add("/a", Etag{"new", false});
  EXPECT_EQ(config.size(), 1u);
  EXPECT_EQ(config.find("/a")->value, "new");
}

TEST(EtagConfigTest, FindWorksFromAnotherThread) {
  EtagConfig config;
  config.add("/a.css", Etag{"abc", false});
  config.add("/b.js", Etag{"def", true});
  std::optional<Etag> found;
  std::optional<Etag> missing{Etag{"x", false}};
  std::thread reader([&] {
    found = config.find("/b.js");
    missing = config.find("/missing");
  });
  reader.join();
  EXPECT_EQ(found, (Etag{"def", true}));
  EXPECT_FALSE(missing);
}

TEST(EtagConfigTest, EntriesAndEncodeStayInPathOrderWhateverTheAddOrder) {
  const std::vector<std::string> sorted = {"/a.css", "/b.js", "/c/d.png",
                                           "/index.html", "/z.css"};
  const std::vector<std::string> reversed(sorted.rbegin(), sorted.rend());
  const std::vector<std::string> shuffled = {"/index.html", "/z.css",
                                             "/a.css", "/c/d.png", "/b.js"};
  // Each path's ETag is its rank in path order.
  const auto etag_of = [&](const std::string& path) {
    for (std::size_t rank = 0; rank < sorted.size(); ++rank) {
      if (sorted[rank] == path) return Etag{"e" + std::to_string(rank), false};
    }
    return Etag{};
  };
  const std::string expected =
      R"({"/a.css":"\"e0\"","/b.js":"\"e1\"","/c/d.png":"\"e2\"",)"
      R"("/index.html":"\"e3\"","/z.css":"\"e4\""})";
  for (const auto& order : {reversed, shuffled}) {
    EtagConfig config;
    for (std::size_t i = 0; i < order.size(); ++i) {
      config.add(order[i], etag_of(order[i]));
      for (std::size_t j = 0; j < order.size(); ++j) {
        if (j <= i) {
          EXPECT_EQ(config.find(order[j]), etag_of(order[j])) << order[j];
        } else {
          EXPECT_FALSE(config.find(order[j])) << order[j];
        }
      }
    }
    std::vector<std::string> paths;
    for (const auto& [path, etag] : config.entries()) {
      EXPECT_EQ(etag, etag_of(path));
      paths.push_back(path);
    }
    EXPECT_EQ(paths, sorted);
    EXPECT_EQ(config.encode(), expected);
  }
}

}  // namespace
}  // namespace catalyst::http
