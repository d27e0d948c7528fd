#include "html/css.h"

#include <gtest/gtest.h>

#include "html/scan.h"
#include "util/hash.h"

namespace catalyst::html {
namespace {

/// extract_css_references(css), checked against the memoized scan_css.
std::vector<CssReference> scanned(std::string_view css) {
  std::vector<CssReference> direct = extract_css_references(css);
  EXPECT_EQ(scan_css(css, fnv1a64(css)), direct) << css;
  return direct;
}

TEST(CssTest, ExtractsUrlFunctions) {
  const auto refs = scanned(
      ".a { background: url(\"/img/a.png\") }\n"
      ".b { background: url('/img/b.png') }\n"
      ".c { background: url(/img/c.png) }\n");
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0].url, "/img/a.png");
  EXPECT_EQ(refs[1].url, "/img/b.png");
  EXPECT_EQ(refs[2].url, "/img/c.png");
  for (const auto& r : refs) EXPECT_FALSE(r.is_import);
}

TEST(CssTest, ExtractsImports) {
  const auto refs = scanned(
      "@import \"base.css\";\n"
      "@import url(\"theme.css\");\n"
      "@import url(print.css);\n");
  ASSERT_EQ(refs.size(), 3u);
  for (const auto& r : refs) EXPECT_TRUE(r.is_import);
  EXPECT_EQ(refs[0].url, "base.css");
  EXPECT_EQ(refs[1].url, "theme.css");
  EXPECT_EQ(refs[2].url, "print.css");
}

TEST(CssTest, SkipsComments) {
  const auto refs = scanned(
      "/* url(\"/commented.png\") */ .a { background: url(\"/real.png\") }");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].url, "/real.png");
}

TEST(CssTest, IgnoresDataUrls) {
  const auto refs = scanned(
      ".a { background: url(data:image/png;base64,AAAA) }\n"
      ".b { background: url(/keep.png) }");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].url, "/keep.png");
}

TEST(CssTest, FontFaceSources) {
  const auto refs = scanned(
      "@font-face { font-family: F; src: url(\"/fonts/f.woff2\") "
      "format(\"woff2\"); }");
  // format("woff2") is a url-less function; only the font URL extracted.
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].url, "/fonts/f.woff2");
}

TEST(CssTest, CaseInsensitiveKeywords) {
  const auto refs = scanned(
      "@IMPORT \"a.css\"; .x { background: URL(/b.png) }");
  ASSERT_EQ(refs.size(), 2u);
}

TEST(CssTest, EmptyAndMalformed) {
  EXPECT_TRUE(scanned("").empty());
  EXPECT_TRUE(scanned(".a { color: red }").empty());
  // Unterminated url( at EOF must not crash or loop.
  const auto refs = scanned(".a { background: url(/x");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].url, "/x");
  EXPECT_TRUE(scanned("/* unterminated comment").empty());
}

TEST(CssTest, WhitespaceInsideUrl) {
  const auto refs =
      scanned(".a { background: url(  \"/padded.png\"  ) }");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].url, "/padded.png");
}

}  // namespace
}  // namespace catalyst::html
