#include "util/hash.h"

#include <gtest/gtest.h>

#include <string>

namespace catalyst {
namespace {

TEST(Fnv1aTest, KnownValuesAndDistinctness) {
  // FNV-1a standard test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("/a.css"), fnv1a64("/b.css"));
}

TEST(Fnv1aTest, Constexpr) {
  static_assert(fnv1a64("abc") != fnv1a64("abd"));
  SUCCEED();
}

TEST(ToHexTest, RendersLowercase) {
  const std::uint8_t bytes[] = {0x00, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(bytes, 3), "00abff");
  EXPECT_EQ(to_hex(bytes, 0), "");
}

}  // namespace
}  // namespace catalyst
