#include "util/json.h"

#include <gtest/gtest.h>

namespace catalyst {
namespace {

TEST(JsonTest, ScalarsDump) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::number(42).dump(), "42");
  EXPECT_EQ(Json::number(-1.5).dump(), "-1.5");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Json::string("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonTest, ObjectKeysSortedDeterministically) {
  Json obj = Json::object();
  obj.set("b", Json::number(2));
  obj.set("a", Json::number(1));
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
}

TEST(JsonTest, NestedStructureRoundTrips) {
  Json obj = Json::object();
  Json arr = Json::array();
  arr.push_back(Json::number(1));
  arr.push_back(Json::string("two"));
  arr.push_back(Json::null());
  obj.set("list", std::move(arr));
  obj.set("flag", Json::boolean(true));
  const std::string text = obj.dump();
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, obj);
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  const auto parsed = Json::parse("  { \"a\" : [ 1 , 2 ] }  ");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->dump(), "{\"a\":[1,2]}");
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse(""));
  EXPECT_FALSE(Json::parse("{"));
  EXPECT_FALSE(Json::parse("{\"a\":}"));
  EXPECT_FALSE(Json::parse("[1,]"));
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing"));
  EXPECT_FALSE(Json::parse("\"unterminated"));
  EXPECT_FALSE(Json::parse("{'single':1}"));
  EXPECT_FALSE(Json::parse("nul"));
}

TEST(JsonTest, ParseUnicodeEscapes) {
  const auto parsed = Json::parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");  // "Aé" in UTF-8
}

TEST(JsonTest, ParseNumbers) {
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2")->as_number(), -1250.0);
  EXPECT_DOUBLE_EQ(Json::parse("0")->as_number(), 0.0);
}

TEST(JsonTest, TypeMismatchThrows) {
  const Json n = Json::number(1);
  EXPECT_THROW(n.as_string(), std::logic_error);
  EXPECT_THROW(n.as_object(), std::logic_error);
  Json s = Json::string("x");
  EXPECT_THROW(s.push_back(Json::null()), std::logic_error);
  EXPECT_THROW(s.set("k", Json::null()), std::logic_error);
}

TEST(JsonTest, FindOnObject) {
  Json obj = Json::object();
  obj.set("k", Json::string("v"));
  ASSERT_NE(obj.find("k"), nullptr);
  EXPECT_EQ(obj.find("k")->as_string(), "v");
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonTest, EscapedKeysRoundTrip) {
  Json obj = Json::object();
  obj.set("path \"quoted\"", Json::string("x"));
  const auto parsed = Json::parse(obj.dump());
  ASSERT_TRUE(parsed);
  EXPECT_NE(parsed->find("path \"quoted\""), nullptr);
}

}  // namespace
}  // namespace catalyst
