#include "netsim/transport.h"

#include <gtest/gtest.h>

namespace catalyst::netsim {
namespace {

class TransportFixture : public ::testing::Test {
 protected:
  TransportFixture() : net_(loop_) {
    HostSpec client;
    client.downlink = mbps(80);  // 10 MB/s
    client.uplink = mbps(80);
    net_.add_host("client", client);
    net_.add_host("origin");
    net_.set_rtt("client", "origin", milliseconds(40));
    // Echo server: responds with a fixed-size body instantly.
    net_.host("origin").set_handler(
        [this](const http::Request& req, auto respond) {
          ++requests_seen_;
          last_target_ = req.target;
          ServerReply reply;
          reply.response = http::Response::make(http::Status::Ok);
          reply.response.body = std::string(response_size_, 'x');
          reply.response.finalize(loop_.now());
          respond(std::move(reply));
        });
  }

  http::Request request(const char* target = "/") {
    return http::Request::get(target, "origin");
  }

  EventLoop loop_;
  Network net_;
  int requests_seen_ = 0;
  std::string last_target_;
  std::size_t response_size_ = 1000;
};

TEST_F(TransportFixture, PlainTcpHandshakeCostsOneRtt) {
  Connection conn(net_, "client", "origin", /*tls=*/false, Protocol::H1);
  TimePoint established{};
  conn.connect([&] { established = loop_.now(); });
  loop_.run();
  EXPECT_EQ(established, TimePoint{} + milliseconds(40));
  EXPECT_TRUE(conn.established());
  EXPECT_EQ(conn.rtts_consumed(), 1);
}

TEST_F(TransportFixture, TlsHandshakeCostsTwoRtts) {
  Connection conn(net_, "client", "origin", /*tls=*/true, Protocol::H1);
  TimePoint established{};
  conn.connect([&] { established = loop_.now(); });
  loop_.run();
  EXPECT_EQ(established, TimePoint{} + milliseconds(80));
  EXPECT_EQ(conn.rtts_consumed(), 2);
}

TEST_F(TransportFixture, ConnectIsIdempotentWhileConnecting) {
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  int callbacks = 0;
  conn.connect([&] { ++callbacks; });
  conn.connect([&] { ++callbacks; });
  loop_.run();
  EXPECT_EQ(callbacks, 2);
  // Connecting again after establishment fires immediately.
  conn.connect([&] { ++callbacks; });
  loop_.run();
  EXPECT_EQ(callbacks, 3);
}

TEST_F(TransportFixture, RequestResponseTiming) {
  // Established plain connection: an exchange costs 1 RTT + transmission.
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  conn.connect([] {});
  loop_.run();

  response_size_ = 100'000;  // 10 ms at 10 MB/s
  TimePoint done{};
  http::Request req = request();
  const ByteCount req_bytes = req.wire_size();
  conn.send_request(std::move(req), [&](http::Response resp) {
    done = loop_.now();
    EXPECT_EQ(resp.status, http::Status::Ok);
    EXPECT_EQ(resp.body.size(), 100'000u);
  });
  loop_.run();
  const Duration expected =
      milliseconds(40)                              // handshake already done
      + mbps(80).transmission_time(req_bytes)       // request upload
      + milliseconds(40)                            // rtt (two one-way legs)
      + mbps(80).transmission_time(100'000 + 97);   // response + head bytes
  // Head bytes: status line + Content-Length/Date headers; compare with a
  // tolerance of the few-hundred-microsecond header transmission instead
  // of hardcoding exact header sizes.
  const double got = to_seconds(done - (TimePoint{} + milliseconds(40)));
  const double want = to_seconds(milliseconds(40)) +
                      static_cast<double>(req_bytes) / 10e6 +
                      (100'000.0 + 100.0) / 10e6;
  EXPECT_NEAR(got, want, 5e-4);
  (void)expected;
}

TEST_F(TransportFixture, H1SerializesRequests) {
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    conn.send_request(request(), [&](http::Response) {
      completions.push_back(loop_.now());
    });
  }
  EXPECT_TRUE(conn.busy() || !conn.established());
  loop_.run();
  ASSERT_EQ(completions.size(), 3u);
  // Strictly increasing: no pipelining.
  EXPECT_LT(completions[0], completions[1]);
  EXPECT_LT(completions[1], completions[2]);
  // Each exchange costs at least one RTT.
  EXPECT_GE(completions[1] - completions[0], milliseconds(40));
  EXPECT_EQ(conn.requests_completed(), 3);
}

TEST_F(TransportFixture, H2MultiplexesRequests) {
  Connection conn(net_, "client", "origin", false, Protocol::H2);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    conn.send_request(request(), [&](http::Response) {
      completions.push_back(loop_.now());
    });
  }
  loop_.run();
  ASSERT_EQ(completions.size(), 3u);
  // All three overlap: total wall time well under 3 serial RTTs.
  EXPECT_LT(completions.back() - TimePoint{},
            milliseconds(40) /*handshake*/ + milliseconds(60));
}

TEST_F(TransportFixture, AutoConnectOnSend) {
  Connection conn(net_, "client", "origin", true, Protocol::H1);
  bool got = false;
  conn.send_request(request(), [&](http::Response) { got = true; });
  loop_.run();
  EXPECT_TRUE(got);
  // TLS handshake + exchange RTTs.
  EXPECT_GE(conn.rtts_consumed(), 3);
}

TEST_F(TransportFixture, ByteCountersTrackBothDirections) {
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  http::Request req = request();
  const ByteCount req_size = req.wire_size();
  ByteCount resp_size = 0;
  conn.send_request(std::move(req), [&](http::Response resp) {
    resp_size = resp.wire_size();
  });
  loop_.run();
  EXPECT_EQ(conn.bytes_sent(), req_size);
  EXPECT_EQ(conn.bytes_received(), resp_size);
}

TEST_F(TransportFixture, MissingHandlerThrows) {
  net_.add_host("bare");
  net_.set_rtt("client", "bare", milliseconds(10));
  Connection conn(net_, "client", "bare", false, Protocol::H1);
  conn.send_request(request(), [](http::Response) {});
  EXPECT_THROW(loop_.run(), std::logic_error);
}

}  // namespace
}  // namespace catalyst::netsim
