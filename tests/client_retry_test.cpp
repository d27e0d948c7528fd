// Client resilience: deadline timers recover silent faults, retries are
// budgeted and GET-only, exhausted budgets settle with a synthesized 504
// (never a hang), and attempt tokens make late responses from abandoned
// attempts harmless.
#include "client/fetcher.h"

#include <gtest/gtest.h>

namespace catalyst::client {
namespace {

class RetryFixture : public ::testing::Test {
 protected:
  RetryFixture() : net_(loop_) {
    netsim::HostSpec client;
    client.downlink = mbps(80);
    client.uplink = mbps(80);
    net_.add_host("client", client);
    net_.add_host("origin");
    net_.set_rtt("client", "origin", milliseconds(40));
  }

  /// Fetcher with the shipped deadline and retry schedule: 15 s per
  /// attempt, two retries, 200 ms backoff doubling per retry.
  Fetcher make_fetcher() {
    FetcherConfig config;
    config.tls = false;
    config.resilient = true;
    return Fetcher(net_, "client", config);
  }

  void respond_ok(std::function<void(netsim::ServerReply)> respond) {
    netsim::ServerReply reply;
    reply.response = http::Response::make(http::Status::Ok);
    reply.response.body = "payload";
    reply.response.finalize(loop_.now());
    respond(std::move(reply));
  }

  netsim::EventLoop loop_;
  netsim::Network net_;
  int requests_seen_ = 0;
};

using netsim::ServerReply;

TEST_F(RetryFixture, StalledAttemptTimesOutAndRetrySucceeds) {
  // The first request hangs forever (the handler swallows it); the
  // deadline must fire, break the wedged connection, and the retry must
  // land on a fresh one and succeed.
  net_.host("origin").set_handler([this](const http::Request&, auto respond) {
    if (++requests_seen_ == 1) return;  // swallowed: silent stall
    respond_ok(respond);
  });
  Fetcher fetcher = make_fetcher();
  int responses = 0;
  http::Status status{};
  fetcher.fetch("origin", http::Request::get("/", "origin"),
                [&](http::Response resp) {
                  ++responses;
                  status = resp.status;
                });
  loop_.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(status, http::Status::Ok);
  EXPECT_EQ(requests_seen_, 2);
  EXPECT_EQ(fetcher.faults().timeouts, 1u);
  EXPECT_EQ(fetcher.faults().retries, 1u);
  // The wedged connection stays in the pool (broken, reaped by
  // close_all) and the retry opened a replacement around it.
  EXPECT_EQ(fetcher.connection_count(), 2u);
}

TEST_F(RetryFixture, ExhaustedRetryBudgetSettlesWith504) {
  // The origin never answers: every attempt must time out, and after the
  // budget runs out the caller gets a synthesized 504 — the load records
  // a failure instead of hanging the event loop.
  net_.host("origin").set_handler(
      [this](const http::Request&, auto) { ++requests_seen_; });
  Fetcher fetcher = make_fetcher();
  int responses = 0;
  http::Status status{};
  fetcher.fetch("origin", http::Request::get("/", "origin"),
                [&](http::Response resp) {
                  ++responses;
                  status = resp.status;
                });
  loop_.run();  // must drain: the 504 settles everything
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(status, http::Status::GatewayTimeout);
  EXPECT_EQ(requests_seen_, 3);  // initial attempt + 2 retries
  EXPECT_EQ(fetcher.faults().timeouts, 3u);
  EXPECT_EQ(fetcher.faults().retries, 2u);
}

TEST_F(RetryFixture, ShippedScheduleTimesEveryAttempt) {
  // Pins the shipped constants: each attempt waits out a 15 s deadline,
  // the first retry backs off 200 ms and the second 400 ms, and the third
  // timeout settles the 504. Every attempt opens a fresh connection (its
  // predecessor was broken by the timeout), so arrivals at the origin
  // are spaced by deadline plus backoff exactly.
  std::vector<TimePoint> arrivals;
  net_.host("origin").set_handler(
      [this, &arrivals](const http::Request&, auto) {
        arrivals.push_back(loop_.now());
      });
  Fetcher fetcher = make_fetcher();
  TimePoint settled{};
  http::Status status{};
  fetcher.fetch("origin", http::Request::get("/", "origin"),
                [&](http::Response resp) {
                  settled = loop_.now();
                  status = resp.status;
                });
  loop_.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[1] - arrivals[0], milliseconds(15'200));
  EXPECT_EQ(arrivals[2] - arrivals[0], milliseconds(30'600));
  EXPECT_EQ(status, http::Status::GatewayTimeout);
  EXPECT_EQ(settled - TimePoint{}, milliseconds(45'600));
}

TEST_F(RetryFixture, NonIdempotentRequestsAreNeverRetried) {
  net_.host("origin").set_handler(
      [this](const http::Request&, auto) { ++requests_seen_; });
  Fetcher fetcher = make_fetcher();
  http::Request post;
  post.method = http::Method::Post;
  post.target = "/submit";
  post.body = "form data";
  http::Status status{};
  fetcher.fetch("origin", std::move(post),
                [&](http::Response resp) { status = resp.status; });
  loop_.run();
  // One attempt, one timeout, straight to 504 — replaying a POST could
  // duplicate a side effect.
  EXPECT_EQ(status, http::Status::GatewayTimeout);
  EXPECT_EQ(requests_seen_, 1);
  EXPECT_EQ(fetcher.faults().timeouts, 1u);
  EXPECT_EQ(fetcher.faults().retries, 0u);
}

TEST_F(RetryFixture, LateResponseFromAbandonedAttemptIsIgnored) {
  // The first response arrives long after its deadline fired. The attempt
  // token must discard it: the caller sees exactly one response — the
  // retry's — and the late delivery on the broken connection is harmless.
  net_.host("origin").set_handler([this](const http::Request&, auto respond) {
    if (++requests_seen_ == 1) {
      loop_.schedule_after(seconds(20), [this, respond]() mutable {
        netsim::ServerReply reply;
        reply.response = http::Response::make(http::Status::Ok);
        reply.response.body = "stale attempt";
        reply.response.finalize(loop_.now());
        respond(std::move(reply));
      });
      return;
    }
    respond_ok(respond);
  });
  Fetcher fetcher = make_fetcher();
  int responses = 0;
  std::string body;
  fetcher.fetch("origin", http::Request::get("/", "origin"),
                [&](http::Response resp) {
                  ++responses;
                  body = resp.body.str();
                });
  loop_.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(body, "payload");  // the retry's body, not the stale one
  EXPECT_EQ(fetcher.faults().timeouts, 1u);
  EXPECT_EQ(fetcher.faults().retries, 1u);
}

TEST_F(RetryFixture, QueuedRequestsRerouteWhenTheirConnectionBreaks) {
  // H1 serializes requests per connection. When the in-flight request
  // stalls and its deadline breaks the connection, requests queued behind
  // it get a connection error and must retry on a fresh connection.
  net_.host("origin").set_handler([this](const http::Request& req,
                                         auto respond) {
    ++requests_seen_;
    if (req.target == "/stalls" && requests_seen_ == 1) return;
    respond_ok(respond);
  });
  FetcherConfig config;
  config.tls = false;
  config.max_connections_per_origin = 1;  // force queueing behind the stall
  config.resilient = true;
  Fetcher fetcher(net_, "client", config);

  int ok = 0;
  fetcher.fetch("origin", http::Request::get("/stalls", "origin"),
                [&](http::Response resp) {
                  if (resp.status == http::Status::Ok) ++ok;
                });
  // Issued after the stalling request is in flight, so its own deadline
  // (t=15.1s) is still pending when the stall's deadline (t=15.0s) breaks
  // the shared connection — the queued request must recover via the
  // connection-error path, not its timer.
  loop_.schedule_after(milliseconds(100), [&] {
    fetcher.fetch("origin", http::Request::get("/queued", "origin"),
                  [&](http::Response resp) {
                    if (resp.status == http::Status::Ok) ++ok;
                  });
  });
  loop_.run();
  // Both eventually succeed on a replacement connection.
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(requests_seen_, 3);  // stall + two successful retries
  EXPECT_EQ(fetcher.faults().timeouts, 1u);             // the stall only
  EXPECT_EQ(fetcher.faults().connection_failures, 1u);  // the queued one
  EXPECT_EQ(fetcher.faults().retries, 2u);              // one per request
}

}  // namespace
}  // namespace catalyst::client
