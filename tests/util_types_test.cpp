#include "util/types.h"

#include <gtest/gtest.h>

namespace catalyst {
namespace {

TEST(Duration, ConstructorsCompose) {
  EXPECT_EQ(microseconds(1), nanoseconds(1000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_EQ(minutes(2), seconds(120));
  EXPECT_EQ(hours(1), minutes(60));
  EXPECT_EQ(days(1), hours(24));
}

TEST(Duration, FractionalSeconds) {
  EXPECT_EQ(seconds_f(0.5), milliseconds(500));
  EXPECT_EQ(milliseconds_f(1.5), microseconds(1500));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(42)), 42.0);
}

TEST(TimePointTest, Arithmetic) {
  const TimePoint t0{};
  const TimePoint t1 = t0 + seconds(5);
  EXPECT_EQ(t1 - t0, seconds(5));
  EXPECT_EQ((t1 - seconds(2)) - t0, seconds(3));
  EXPECT_LT(t0, t1);
  TimePoint t2 = t0;
  t2 += milliseconds(10);
  EXPECT_EQ(t2.since_epoch(), milliseconds(10));
}

TEST(BandwidthTest, TransmissionTime) {
  // 8 Mbps = 1 MB/s: one megabyte takes one second.
  const Bandwidth bw = mbps(8);
  EXPECT_DOUBLE_EQ(bw.bytes_per_second(), 1e6);
  EXPECT_EQ(bw.transmission_time(1'000'000), seconds(1));
  EXPECT_EQ(bw.transmission_time(0), Duration::zero());
  // 1500-byte packet at 60 Mbps: 200 microseconds.
  EXPECT_EQ(mbps(60).transmission_time(1500), microseconds(200));
}

TEST(BandwidthTest, UnitHelpers) {
  EXPECT_DOUBLE_EQ(kbps(5).bits_per_second(), 5e3);
  EXPECT_DOUBLE_EQ(gbps(1).bits_per_second(), 1e9);
  EXPECT_LT(mbps(8), mbps(60));
}

TEST(ByteCountTest, Helpers) {
  EXPECT_EQ(KiB(1), 1024u);
  EXPECT_EQ(MiB(1), 1024u * 1024u);
}

TEST(FormatTest, Duration) {
  EXPECT_EQ(format_duration(nanoseconds(500)), "500 ns");
  EXPECT_EQ(format_duration(microseconds(1500)), "1.5 ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.00 s");
  EXPECT_EQ(format_duration(minutes(30)), "30 min");
  EXPECT_EQ(format_duration(hours(6)), "6 h");
  EXPECT_EQ(format_duration(days(7)), "7 d");
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(KiB(2)), "2.0 KiB");
  EXPECT_EQ(format_bytes(MiB(3)), "3.00 MiB");
}

}  // namespace
}  // namespace catalyst
