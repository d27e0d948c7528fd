#include "util/base64.h"
#include "util/bloom.h"

#include <gtest/gtest.h>

namespace catalyst {
namespace {

TEST(Base64Test, Rfc4648Vectors) {
  EXPECT_EQ(base64_encode(""), "");
  EXPECT_EQ(base64_encode("f"), "Zg==");
  EXPECT_EQ(base64_encode("fo"), "Zm8=");
  EXPECT_EQ(base64_encode("foo"), "Zm9v");
  EXPECT_EQ(base64_encode("foob"), "Zm9vYg==");
  EXPECT_EQ(base64_encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
}

TEST(Base64Test, RoundTripBinary) {
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  const auto decoded = base64_decode(base64_encode(data));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, data);
}

TEST(Base64Test, DecodeRejectsMalformed) {
  EXPECT_FALSE(base64_decode("Zg="));       // bad length
  EXPECT_FALSE(base64_decode("Z!=="));      // invalid character
  EXPECT_FALSE(base64_decode("Zg==Zg=="));  // padding mid-stream
  EXPECT_FALSE(base64_decode("=Zg="));      // padding in front
  EXPECT_TRUE(base64_decode(""));           // empty is fine
}

TEST(BloomFilterTest, InsertedKeysAlwaysFound) {
  BloomFilter filter(1 << 12, 5);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("/assets/resource" + std::to_string(i) + ".css");
  }
  for (const auto& key : keys) filter.insert(key);
  for (const auto& key : keys) {
    EXPECT_TRUE(filter.may_contain(key)) << key;  // no false negatives
  }
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  const std::size_t n = 500;
  BloomFilter filter = BloomFilter::for_entries(n, 0.01);
  for (std::size_t i = 0; i < n; ++i) {
    filter.insert("/present/" + std::to_string(i));
  }
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.may_contain("/absent/" + std::to_string(i))) {
      ++false_positives;
    }
  }
  // ~1% target: accept up to 3%.
  EXPECT_LT(false_positives, probes * 3 / 100);
}

TEST(BloomFilterTest, SizingFormula) {
  const BloomFilter filter = BloomFilter::for_entries(100, 0.01);
  // m = -100 ln(0.01)/ln²2 ≈ 959 bits ≈ 120 bytes; k ≈ 7.
  EXPECT_NEAR(static_cast<double>(filter.byte_size()), 120.0, 8.0);
  EXPECT_NEAR(filter.hash_count(), 7, 1);
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  BloomFilter filter = BloomFilter::for_entries(50, 0.01);
  for (int i = 0; i < 50; ++i) filter.insert("/r" + std::to_string(i));
  const auto restored = BloomFilter::deserialize(filter.serialize());
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->hash_count(), filter.hash_count());
  EXPECT_EQ(restored->byte_size(), filter.byte_size());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(restored->may_contain("/r" + std::to_string(i)));
  }
}

TEST(BloomFilterTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(BloomFilter::deserialize(""));
  EXPECT_FALSE(BloomFilter::deserialize("no-colon"));
  EXPECT_FALSE(BloomFilter::deserialize("0:AAAA"));   // k must be >= 1
  EXPECT_FALSE(BloomFilter::deserialize("99:AAAA"));  // k too large
  EXPECT_FALSE(BloomFilter::deserialize("3:!!!!"));   // bad base64
  EXPECT_FALSE(BloomFilter::deserialize("3:"));       // empty bits
}

TEST(BloomFilterTest, EmptyFilterContainsNothing) {
  BloomFilter filter(1024, 4);
  EXPECT_FALSE(filter.may_contain("/anything"));
}

}  // namespace
}  // namespace catalyst
