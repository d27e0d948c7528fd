#include "http/etag.h"

#include <gtest/gtest.h>

namespace catalyst::http {
namespace {

TEST(EtagTest, ParseStrong) {
  const auto tag = Etag::parse("\"abc123\"");
  ASSERT_TRUE(tag);
  EXPECT_EQ(tag->value, "abc123");
  EXPECT_FALSE(tag->weak);
}

TEST(EtagTest, ParseWeak) {
  const auto tag = Etag::parse("W/\"v1\"");
  ASSERT_TRUE(tag);
  EXPECT_EQ(tag->value, "v1");
  EXPECT_TRUE(tag->weak);
}

TEST(EtagTest, ParseTolerantOfSurroundingWhitespace) {
  const auto tag = Etag::parse("  \"x\"  ");
  ASSERT_TRUE(tag);
  EXPECT_EQ(tag->value, "x");
}

TEST(EtagTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Etag::parse(""));
  EXPECT_FALSE(Etag::parse("abc"));          // no quotes
  EXPECT_FALSE(Etag::parse("\"unterminated"));
  EXPECT_FALSE(Etag::parse("\"em\"bedded\""));
  EXPECT_FALSE(Etag::parse("w/\"x\""));      // W must be uppercase... actually
  // RFC 9110 defines the weak prefix as the two characters "W/"; lowercase
  // is invalid.
}

TEST(EtagTest, RoundTrip) {
  for (const char* text : {"\"abc\"", "W/\"abc\"", "\"\""}) {
    const auto tag = Etag::parse(text);
    ASSERT_TRUE(tag) << text;
    EXPECT_EQ(tag->to_string(), text);
  }
}

// RFC 9110 §8.8.3.2 comparison table.
TEST(EtagTest, ComparisonTable) {
  const Etag w1{"1", true}, w1b{"1", true}, w2{"2", true}, s1{"1", false};
  // W/"1" vs W/"1": weak match only.
  EXPECT_FALSE(w1.strong_equals(w1b));
  EXPECT_TRUE(w1.weak_equals(w1b));
  // W/"1" vs W/"2": no match.
  EXPECT_FALSE(w1.strong_equals(w2));
  EXPECT_FALSE(w1.weak_equals(w2));
  // W/"1" vs "1": weak match only.
  EXPECT_FALSE(w1.strong_equals(s1));
  EXPECT_TRUE(w1.weak_equals(s1));
  // "1" vs "1": both.
  EXPECT_TRUE(s1.strong_equals(Etag{"1", false}));
  EXPECT_TRUE(s1.weak_equals(Etag{"1", false}));
}

TEST(IfNoneMatchTest, Wildcard) {
  const auto inm = IfNoneMatch::parse("*");
  ASSERT_TRUE(inm);
  EXPECT_TRUE(inm->any);
  EXPECT_TRUE(inm->matches(Etag{"anything", false}));
}

TEST(IfNoneMatchTest, ListMatchingIsWeak) {
  const auto inm = IfNoneMatch::parse("\"a\", W/\"b\", \"c\"");
  ASSERT_TRUE(inm);
  ASSERT_EQ(inm->tags.size(), 3u);
  EXPECT_TRUE(inm->matches(Etag{"b", false}));  // weak compare
  EXPECT_TRUE(inm->matches(Etag{"a", true}));
  EXPECT_FALSE(inm->matches(Etag{"d", false}));
}

TEST(IfNoneMatchTest, RejectsGarbage) {
  EXPECT_FALSE(IfNoneMatch::parse(""));
  EXPECT_FALSE(IfNoneMatch::parse("not-quoted"));
}

TEST(MakeContentEtagTest, DeterministicAndContentSensitive) {
  const Etag a = make_content_etag("hello");
  const Etag b = make_content_etag("hello");
  const Etag c = make_content_etag("hello!");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.value, c.value);
  EXPECT_FALSE(a.weak);
  EXPECT_EQ(a.value.size(), 16u);
  // The 16 lowercase hex digits of fnv1a64("hello").
  EXPECT_EQ(a.value, "a430d84680aabd0b");
}

}  // namespace
}  // namespace catalyst::http
