#include "netsim/network.h"

#include <gtest/gtest.h>

#include "netsim/conditions.h"
#include "netsim/trace.h"

namespace catalyst::netsim {
namespace {

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : net_(loop_) {
    HostSpec client;
    client.downlink = mbps(8);  // 1 MB/s
    client.uplink = mbps(4);
    net_.add_host("client", client);
    net_.add_host("origin");  // 1 Gbps default
    net_.set_rtt("client", "origin", milliseconds(40));
  }

  EventLoop loop_;
  Network net_;
};

TEST_F(NetworkFixture, SendBytesTimingIsTransmissionPlusPropagation) {
  TimePoint delivered{};
  // 1 MB downstream at 1 MB/s + 20 ms one-way = 1.02 s.
  net_.send_bytes("origin", "client", 1'000'000,
                  [&] { delivered = loop_.now(); });
  loop_.run();
  EXPECT_EQ(delivered, TimePoint{} + seconds(1) + milliseconds(20));
}

TEST_F(NetworkFixture, BottleneckPicksSlowerDirectionLink) {
  // Upstream: client uplink (0.5 MB/s) is slower than origin downlink.
  TimePoint delivered{};
  net_.send_bytes("client", "origin", 500'000,
                  [&] { delivered = loop_.now(); });
  loop_.run();
  EXPECT_EQ(delivered, TimePoint{} + seconds(1) + milliseconds(20));
}

TEST_F(NetworkFixture, ConcurrentDownloadsContendOnClientLink) {
  TimePoint a{}, b{};
  net_.send_bytes("origin", "client", 500'000, [&] { a = loop_.now(); });
  net_.send_bytes("origin", "client", 500'000, [&] { b = loop_.now(); });
  loop_.run();
  // Processor sharing: both at 1.02 s (not 0.52 s).
  EXPECT_EQ(a, TimePoint{} + seconds(1) + milliseconds(20));
  EXPECT_EQ(b, a);
}

TEST_F(NetworkFixture, TotalBytesAccounted) {
  net_.send_bytes("origin", "client", 1000, [] {});
  net_.send_bytes("client", "origin", 500, [] {});
  loop_.run();
  EXPECT_EQ(net_.total_bytes_transferred(), 1500u);
}

TEST_F(NetworkFixture, UnknownHostsThrow) {
  EXPECT_THROW(net_.host("nope"), std::out_of_range);
  EXPECT_THROW(net_.rtt("client", "nope"), std::out_of_range);
  EXPECT_THROW(net_.set_rtt("client", "nope", milliseconds(1)),
               std::out_of_range);
  EXPECT_THROW(net_.send_bytes("nope", "client", 1, [] {}),
               std::out_of_range);
}

TEST_F(NetworkFixture, DuplicateHostRejected) {
  EXPECT_THROW(net_.add_host("client"), std::invalid_argument);
}

TEST_F(NetworkFixture, RttIsSymmetricallyKeyed) {
  EXPECT_EQ(net_.rtt("origin", "client"), milliseconds(40));
  EXPECT_EQ(net_.one_way("client", "origin"), milliseconds(20));
}

TEST(ConditionsTest, LabelsAndProfiles) {
  const auto c = NetworkConditions::median_5g();
  EXPECT_EQ(c.label(), "60Mbps/40ms");
  EXPECT_DOUBLE_EQ(c.downlink.bits_per_second(), 60e6);
  EXPECT_EQ(c.rtt, milliseconds(40));
}

TEST(TraceTest, WaterfallRendersAllFetches) {
  TraceLog log;
  FetchTrace t;
  t.url = "/index.html";
  t.start = TimePoint{};
  t.finish = TimePoint{} + milliseconds(80);
  t.source = FetchSource::Network;
  t.bytes_down = 1234;
  log.record(t);
  t.url = "/a.css";
  t.start = TimePoint{} + milliseconds(80);
  t.finish = TimePoint{} + milliseconds(120);
  t.source = FetchSource::SwCache;
  t.bytes_down = 0;
  log.record(t);
  const std::string waterfall = log.render_waterfall();
  EXPECT_NE(waterfall.find("/index.html"), std::string::npos);
  EXPECT_NE(waterfall.find("/a.css"), std::string::npos);
  EXPECT_NE(waterfall.find("sw-cache"), std::string::npos);
  EXPECT_NE(waterfall.find("network"), std::string::npos);
}

TEST(TraceTest, EmptyLog) {
  TraceLog log;
  EXPECT_EQ(log.render_waterfall(), "(no fetches)\n");
}

TEST(TraceTest, SourceNames) {
  EXPECT_EQ(to_string(FetchSource::Network), "network");
  EXPECT_EQ(to_string(FetchSource::BrowserCache), "cache");
  EXPECT_EQ(to_string(FetchSource::NotModified), "304");
  EXPECT_EQ(to_string(FetchSource::SwCache), "sw-cache");
  EXPECT_EQ(to_string(FetchSource::Push), "push");
}

}  // namespace
}  // namespace catalyst::netsim
