#include "netsim/transport.h"

#include <gtest/gtest.h>

#include <algorithm>

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
    // Echo server: responds with a fixed-size body instantly, pushing
    // "<target>.push" and hinting "<target>.hint" when `push_` is set.
    net_.host("origin").set_handler(
        [this](const http::Request& req, auto respond) {
          ++requests_seen_;
          last_target_ = req.target;
          ServerReply reply;
          reply.response = http::Response::make(http::Status::Ok);
          reply.response.body = std::string(response_size_, 'x');
          reply.response.finalize(loop_.now());
          if (push_) {
            PushedResponse push{req.target + ".push", reply.response};
            reply.pushes.push_back(std::move(push));
            reply.early_hint_urls.push_back(req.target + ".hint");
          }
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
  bool push_ = false;
};

// The first request on a connection pays the handshake; a second request
// on the established connection does not. Their exchanges are identical,
// so the gap between their durations is the handshake alone.
Duration handshake_time(Connection& conn, EventLoop& loop,
                        const http::Request& request) {
  TimePoint first{};
  conn.send_request(request, [&](http::Response) { first = loop.now(); });
  const TimePoint t0 = loop.now();
  loop.run();
  TimePoint second{};
  const TimePoint t1 = loop.now();
  conn.send_request(request, [&](http::Response) { second = loop.now(); });
  loop.run();
  return (first - t0) - (second - t1);
}

TEST_F(TransportFixture, PlainTcpHandshakeCostsOneRtt) {
  Connection conn(net_, "client", "origin", /*tls=*/false, Protocol::H1);
  EXPECT_EQ(handshake_time(conn, loop_, request()), milliseconds(40));
  // One handshake RTT plus one per exchange.
  EXPECT_EQ(conn.rtts_consumed(), 3);
}

TEST_F(TransportFixture, TlsHandshakeCostsTwoRtts) {
  Connection conn(net_, "client", "origin", /*tls=*/true, Protocol::H1);
  EXPECT_EQ(handshake_time(conn, loop_, request()), milliseconds(80));
  EXPECT_EQ(conn.rtts_consumed(), 4);
}

TEST_F(TransportFixture, ConnectIsIdempotentWhileConnecting) {
  // Requests queued during the handshake share it: one handshake RTT for
  // both, and each exchange starts no earlier than establishment.
  Connection conn(net_, "client", "origin", false, Protocol::H2);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 2; ++i) {
    conn.send_request(request(), [&](http::Response) {
      completions.push_back(loop_.now());
    });
  }
  EXPECT_EQ(conn.pending(), 2u);
  loop_.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(conn.rtts_consumed(), 1 + 2);
  // Handshake plus one exchange RTT, then both transfers share the link:
  // well under a second handshake.
  for (const TimePoint done : completions) {
    EXPECT_GE(done - TimePoint{}, milliseconds(40 + 40));
    EXPECT_LT(done - TimePoint{}, milliseconds(40 + 40 + 20));
  }
}

TEST_F(TransportFixture, RequestResponseTiming) {
  // Established plain connection: an exchange costs 1 RTT + transmission.
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  conn.send_request(request(), [](http::Response) {});
  loop_.run();
  const TimePoint established = loop_.now();

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
  const double got = to_seconds(done - established);
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
  EXPECT_EQ(conn.pending(), 3u);
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

TEST_F(TransportFixture, H2DeliversServerEventsToTheConnectionHandlers) {
  push_ = true;
  std::vector<std::string> promised, pushed, hinted;
  Connection::ServerEvents events;
  events.on_promise = [&](const std::string& server,
                          const std::string& target) {
    promised.push_back(server + target);
  };
  events.on_push = [&](const std::string& server, PushedResponse push) {
    // A push's promise lands before the push does.
    const std::string key = server + push.target;
    EXPECT_NE(std::find(promised.begin(), promised.end(), key),
              promised.end());
    pushed.push_back(key);
  };
  events.on_hints = [&](const std::string& server,
                        const std::vector<std::string>& urls) {
    for (const std::string& url : urls) hinted.push_back(server + url);
  };
  Connection conn(net_, "client", "origin", false, Protocol::H2,
                  /*resolve_dns=*/false, std::move(events));
  int responses = 0;
  conn.send_request(request("/a"), [&](http::Response) { ++responses; });
  conn.send_request(request("/b"), [&](http::Response) { ++responses; });
  loop_.run();
  EXPECT_EQ(responses, 2);
  const std::vector<std::string> want_pushes = {"origin/a.push",
                                                "origin/b.push"};
  EXPECT_EQ(promised, want_pushes);
  EXPECT_EQ(pushed, want_pushes);
  EXPECT_EQ(hinted,
            (std::vector<std::string>{"origin/a.hint", "origin/b.hint"}));
}

TEST_F(TransportFixture, H1DropsPushesButDeliversHints) {
  push_ = true;
  int pushes = 0;
  int hints = 0;
  Connection::ServerEvents events;
  events.on_promise = [&](const std::string&, const std::string&) {
    ++pushes;
  };
  events.on_push = [&](const std::string&, PushedResponse) { ++pushes; };
  events.on_hints = [&](const std::string&,
                        const std::vector<std::string>&) { ++hints; };
  Connection conn(net_, "client", "origin", false, Protocol::H1,
                  /*resolve_dns=*/false, std::move(events));
  http::Response got;
  conn.send_request(request("/a"),
                    [&](http::Response resp) { got = std::move(resp); });
  loop_.run();
  EXPECT_EQ(got.status, http::Status::Ok);
  EXPECT_EQ(pushes, 0);
  EXPECT_EQ(hints, 1);
  // The dropped push never crossed the wire.
  EXPECT_LT(conn.bytes_received(), 2 * got.wire_size());
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
