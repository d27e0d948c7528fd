#include "html/parser.h"

#include <gtest/gtest.h>

namespace catalyst::html {
namespace {

TEST(HtmlParserTest, BuildsTree) {
  const auto doc = parse("<html><head><title>T</title></head>"
                         "<body><p>text</p></body></html>");
  ASSERT_EQ(doc->kind(), Node::Kind::Document);
  const Node* title = doc->find_first("title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->text_content(), "T");
  const Node* body = doc->find_first("body");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->text_content(), "text");
}

TEST(HtmlParserTest, VoidElementsDoNotNest) {
  const auto doc = parse("<body><img src=a.png><p>after</p></body>");
  const Node* body = doc->find_first("body");
  ASSERT_NE(body, nullptr);
  // img and p are siblings, not parent/child.
  ASSERT_EQ(body->children().size(), 2u);
  EXPECT_TRUE(body->children()[0]->is_element("img"));
  EXPECT_TRUE(body->children()[1]->is_element("p"));
}

TEST(HtmlParserTest, MismatchedEndTagsRecover) {
  const auto doc = parse("<div><span>x</div><p>y</p>");
  // The unclosed span is closed by the div's end tag; p is a sibling.
  const Node* p = doc->find_first("p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->text_content(), "y");
}

TEST(HtmlParserTest, StrayEndTagIgnored) {
  const auto doc = parse("</div><p>ok</p>");
  ASSERT_NE(doc->find_first("p"), nullptr);
}

TEST(HtmlParserTest, AttributesAccessible) {
  const auto doc = parse("<link rel=\"stylesheet\" href=\"/a.css\">");
  const Node* link = doc->find_first("link");
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->attr("rel"), "stylesheet");
  EXPECT_EQ(link->attr("href"), "/a.css");
  EXPECT_FALSE(link->attr("media").has_value());
  EXPECT_TRUE(link->has_attr("rel"));
}

TEST(HtmlParserTest, ForEachElementVisitsDepthFirst) {
  const auto doc = parse("<div><p><b>x</b></p><i>y</i></div>");
  std::vector<std::string> tags;
  doc->for_each_element([&](const Node& el) { tags.push_back(el.data()); });
  EXPECT_EQ(tags, (std::vector<std::string>{"div", "p", "b", "i"}));
}

TEST(HtmlParserTest, EmptyInputYieldsEmptyDocument) {
  const auto doc = parse("");
  EXPECT_TRUE(doc->children().empty());
}

TEST(HtmlParserTest, CommentsPreserved) {
  const auto doc = parse("<body><!-- note --></body>");
  const Node* body = doc->find_first("body");
  ASSERT_EQ(body->children().size(), 1u);
  EXPECT_EQ(body->children()[0]->kind(), Node::Kind::Comment);
  EXPECT_EQ(body->children()[0]->data(), " note ");
}

}  // namespace
}  // namespace catalyst::html
