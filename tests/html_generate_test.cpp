#include "html/generate.h"

#include <gtest/gtest.h>

#include "html/css.h"
#include "html/link_extract.h"
#include "html/parser.h"

namespace catalyst::html {
namespace {

TEST(FillerTextTest, ExactSizeAndDeterminism) {
  const std::string a = filler_text(1000, 7);
  const std::string b = filler_text(1000, 7);
  const std::string c = filler_text(1000, 8);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(filler_text(0, 1).size(), 0u);
}

TEST(HtmlBuilderTest, GeneratedPageParsesBack) {
  HtmlBuilder builder("Test Page");
  builder.add_stylesheet("/a.css")
      .add_script("/b.js")
      .add_script("/d.js", /*deferred=*/true)
      .add_image("/pic.webp", "a picture")
      .add_paragraph("hello world");
  const std::string page = builder.build();

  const auto found = extract_resources(*parse(page));
  ASSERT_EQ(found.size(), 4u);
  EXPECT_EQ(found[0].url, "/a.css");
  EXPECT_EQ(found[1].url, "/b.js");
  EXPECT_TRUE(found[1].parser_blocking);
  EXPECT_EQ(found[2].url, "/d.js");
  EXPECT_FALSE(found[2].parser_blocking);
  EXPECT_EQ(found[3].url, "/pic.webp");
}

TEST(HtmlBuilderTest, PadToReachesApproximateSize) {
  HtmlBuilder builder("T");
  builder.add_paragraph("small");
  builder.pad_to(KiB(20), 3);
  const std::string page = builder.build();
  EXPECT_GE(page.size(), KiB(20) - 16);
  EXPECT_LE(page.size(), KiB(20) + 64);
}

TEST(HtmlBuilderTest, PadToNoOpWhenAlreadyLarger) {
  HtmlBuilder builder("T");
  builder.add_paragraph(filler_text(5000, 1));
  const std::string before = builder.build();
  builder.pad_to(100, 2);
  EXPECT_EQ(builder.build(), before);
}

TEST(MakeCssTest, ExactSizeAndReferencesSurvive) {
  const std::string css = make_css({"/img/a.webp", "/img/b.webp"},
                                   {"/fonts/f.woff2"}, {"/base.css"},
                                   KiB(10), 42);
  EXPECT_EQ(css.size(), KiB(10));
  const auto refs = extract_css_references(css);
  // 1 import + 1 font + 2 images (padding rules carry no urls).
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_TRUE(refs[0].is_import);
}

TEST(MakeCssTest, VersionSaltChangesContent) {
  const std::string v0 = make_css({}, {}, {}, 2048, 1);
  const std::string v1 = make_css({}, {}, {}, 2048, 2);
  EXPECT_EQ(v0.size(), v1.size());
  EXPECT_NE(v0, v1);
}

TEST(MakeJsTest, ExactSizeAndFetchDirectives) {
  const std::string js =
      make_js({"/api/x.json", "/assets/lazy1.js"}, KiB(8), 9);
  EXPECT_EQ(js.size(), KiB(8));
  const auto fetches = extract_js_fetches(js);
  ASSERT_EQ(fetches.size(), 2u);
  EXPECT_EQ(fetches[0], "/api/x.json");
  EXPECT_EQ(fetches[1], "/assets/lazy1.js");
}

TEST(MakeJsTest, TruncationNeverCutsDirectives) {
  // Directives are emitted first; even tiny sizes keep them intact when
  // they fit.
  const std::string js = make_js({"/a.json"}, 256, 1);
  EXPECT_EQ(js.size(), 256u);
  EXPECT_EQ(extract_js_fetches(js).size(), 1u);
}

}  // namespace
}  // namespace catalyst::html
