#include "http/headers.h"

#include <gtest/gtest.h>

namespace catalyst::http {
namespace {

TEST(HeadersTest, CaseInsensitiveLookup) {
  Headers h;
  h.add("Content-Type", "text/html");
  EXPECT_EQ(h.get("content-type"), "text/html");
  EXPECT_EQ(h.get("CONTENT-TYPE"), "text/html");
  EXPECT_FALSE(h.get("content-length").has_value());
}

TEST(HeadersTest, AddAllowsDuplicatesGetReturnsFirst) {
  Headers h;
  h.add("Set-Cookie", "a=1");
  h.add("Set-Cookie", "b=2");
  EXPECT_EQ(h.get("set-cookie"), "a=1");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.fields()[1].value, "b=2");
}

TEST(HeadersTest, SetReplacesAll) {
  Headers h;
  h.add("X", "1");
  h.add("X", "2");
  h.set("x", "3");
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.get("X"), "3");
}

TEST(HeadersTest, RemoveReturnsCount) {
  Headers h;
  h.add("A", "1");
  h.add("a", "2");
  h.add("B", "3");
  EXPECT_EQ(h.remove("A"), 2u);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.remove("missing"), 0u);
}

TEST(HeadersTest, InsertionOrderPreserved) {
  Headers h;
  h.add("Z", "1");
  h.add("A", "2");
  EXPECT_EQ(h.fields()[0].name, "Z");
  EXPECT_EQ(h.fields()[1].name, "A");
}

TEST(HeadersTest, WireSizeCountsNameColonSpaceValueCrlf) {
  Headers h;
  h.add("Host", "example.com");  // 4 + 2 + 11 + 2 = 19
  EXPECT_EQ(h.wire_size(), 19u);
  h.add("A", "b");  // + 1 + 2 + 1 + 2 = 6
  EXPECT_EQ(h.wire_size(), 25u);
}

TEST(HeadersTest, EqualityIsCaseInsensitiveOnNames) {
  Headers a, b;
  a.add("ETag", "\"x\"");
  b.add("etag", "\"x\"");
  EXPECT_EQ(a, b);
  b.set("etag", "\"y\"");
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace catalyst::http
