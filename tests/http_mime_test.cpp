#include "http/mime.h"

#include <gtest/gtest.h>

namespace catalyst::http {
namespace {

TEST(MimeTest, ClassifyPathByExtension) {
  EXPECT_EQ(classify_path("/index.html"), ResourceClass::Html);
  EXPECT_EQ(classify_path("/"), ResourceClass::Html);
  EXPECT_EQ(classify_path("/dir/"), ResourceClass::Html);
  EXPECT_EQ(classify_path("/a.css"), ResourceClass::Css);
  EXPECT_EQ(classify_path("/app.mjs"), ResourceClass::Script);
  EXPECT_EQ(classify_path("/pic.webp"), ResourceClass::Image);
  EXPECT_EQ(classify_path("/f.woff2"), ResourceClass::Font);
  EXPECT_EQ(classify_path("/api/data.json"), ResourceClass::Json);
  EXPECT_EQ(classify_path("/blob.bin"), ResourceClass::Other);
}

TEST(MimeTest, ClassifyPathIgnoresQuery) {
  EXPECT_EQ(classify_path("/a.css?v=123"), ResourceClass::Css);
  EXPECT_EQ(classify_path("/pic.jpg?size=large"), ResourceClass::Image);
}

TEST(MimeTest, Labels) {
  EXPECT_EQ(class_label(ResourceClass::Script), "js");
  EXPECT_EQ(class_label(ResourceClass::Image), "img");
}

}  // namespace
}  // namespace catalyst::http
