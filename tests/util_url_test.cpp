#include "util/url.h"

#include <gtest/gtest.h>

namespace catalyst {
namespace {

TEST(UrlParseTest, AbsoluteUrl) {
  const auto url = Url::parse("https://www.example.com/a/b.css?v=2");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, "https");
  EXPECT_EQ(url->host, "www.example.com");
  EXPECT_EQ(url->port, 0);
  EXPECT_EQ(url->path, "/a/b.css");
  EXPECT_EQ(url->query, "v=2");
  EXPECT_TRUE(url->is_absolute());
}

TEST(UrlParseTest, HostCaseFoldedPathPreserved) {
  const auto url = Url::parse("HTTPS://WWW.Example.COM/CaseSensitive");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, "https");
  EXPECT_EQ(url->host, "www.example.com");
  EXPECT_EQ(url->path, "/CaseSensitive");
}

TEST(UrlParseTest, ExplicitPort) {
  const auto url = Url::parse("http://host:8080/x");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->port, 8080);
}

TEST(UrlParseTest, BadPortRejected) {
  EXPECT_FALSE(Url::parse("http://host:99999/"));
  EXPECT_FALSE(Url::parse("http://host:abc/"));
}

TEST(UrlParseTest, NoPathMeansRoot) {
  const auto url = Url::parse("https://example.com");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->path, "/");
  EXPECT_EQ(url->path_and_query(), "/");
}

TEST(UrlParseTest, RelativeReference) {
  const auto url = Url::parse("img/pic.webp?x=1");
  ASSERT_TRUE(url);
  EXPECT_FALSE(url->is_absolute());
  EXPECT_EQ(url->path, "img/pic.webp");
  EXPECT_EQ(url->query, "x=1");
}

TEST(UrlParseTest, FragmentsDropped) {
  const auto url = Url::parse("https://h/p#section");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->path, "/p");
}

TEST(UrlParseTest, RejectsWhitespaceAndEmpty) {
  EXPECT_FALSE(Url::parse(""));
  EXPECT_FALSE(Url::parse("https://h/a b"));
}

TEST(RemoveDotSegmentsTest, Rfc3986Examples) {
  EXPECT_EQ(remove_dot_segments("/a/b/c/./../../g"), "/a/g");
  EXPECT_EQ(remove_dot_segments("mid/content=5/../6"), "mid/6");
  EXPECT_EQ(remove_dot_segments("/../x"), "/x");
  EXPECT_EQ(remove_dot_segments("/a/.."), "/");
  EXPECT_EQ(remove_dot_segments("/a/b/"), "/a/b/");
}

TEST(UrlResolveTest, AbsolutePathReference) {
  const Url base = *Url::parse("https://h.com/dir/page.html");
  const Url resolved = base.resolve(*Url::parse("/root.css"));
  EXPECT_EQ(resolved.to_string(), "https://h.com/root.css");
}

TEST(UrlResolveTest, RelativePathReference) {
  const Url base = *Url::parse("https://h.com/dir/page.html");
  EXPECT_EQ(base.resolve(*Url::parse("style.css")).path, "/dir/style.css");
  EXPECT_EQ(base.resolve(*Url::parse("../up.css")).path, "/up.css");
  EXPECT_EQ(base.resolve(*Url::parse("./same.css")).path, "/dir/same.css");
}

TEST(UrlResolveTest, AbsoluteReferenceWins) {
  const Url base = *Url::parse("https://h.com/dir/page.html");
  const Url resolved = base.resolve(*Url::parse("https://other.com/x"));
  EXPECT_EQ(resolved.host, "other.com");
}

TEST(UrlResolveTest, NetworkPathReference) {
  const Url base = *Url::parse("https://h.com/a");
  const Url resolved = base.resolve(*Url::parse("//cdn.com/lib.js"));
  EXPECT_EQ(resolved.scheme, "https");  // inherited
  EXPECT_EQ(resolved.host, "cdn.com");
  EXPECT_EQ(resolved.path, "/lib.js");
}

TEST(UrlResolveTest, EmptyPathKeepsBase) {
  const Url base = *Url::parse("https://h.com/a/b?q=1");
  const Url resolved = base.resolve(*Url::parse("?q=2"));
  EXPECT_EQ(resolved.path, "/a/b");
  EXPECT_EQ(resolved.query, "q=2");
}

TEST(UrlOriginTest, OmitsDefaultPort) {
  EXPECT_EQ(Url::parse("https://h.com:443/x")->origin(), "https://h.com");
  EXPECT_EQ(Url::parse("https://h.com:8443/x")->origin(),
            "https://h.com:8443");
}

TEST(UrlToStringTest, RoundTrips) {
  for (const char* text :
       {"https://h.com/a/b.css?v=2", "https://h.com/",
        "http://h.com:8080/x"}) {
    const auto url = Url::parse(text);
    ASSERT_TRUE(url) << text;
    EXPECT_EQ(url->to_string(), text);
  }
}

}  // namespace
}  // namespace catalyst
