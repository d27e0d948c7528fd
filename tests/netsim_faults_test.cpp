// Fault-injection layer: decisions must be deterministic pure functions
// of (fault_seed, stream, ordinal), rates must partition correctly, and
// the transport must express each fault with the documented semantics —
// detectable error for drops, silence for stalls and blackholes.
#include "netsim/faults.h"

#include <gtest/gtest.h>

#include "netsim/transport.h"

namespace catalyst::netsim {
namespace {

TEST(FaultPlanTest, ZeroSpecIsInert) {
  FaultSpec spec;
  EXPECT_FALSE(spec.any());
  FaultPlan plan(spec);
  for (int i = 0; i < 100; ++i) {
    const FaultDecision d = plan.next_request();
    EXPECT_FALSE(d.drop_mid_stream);
    EXPECT_FALSE(d.stall);
    EXPECT_EQ(d.progress_fraction, 1.0);
  }
  EXPECT_EQ(plan.requests_decided(), 100u);
  EXPECT_FALSE(plan.origin_dark(TimePoint{} + hours(3)));
}

FaultSpec mixed_spec() {
  FaultSpec spec;
  spec.loss_rate = 0.3;
  spec.stall_rate = 0.2;
  spec.fault_seed = 77;
  spec.stream = 5;
  return spec;
}

bool same_decision(const FaultDecision& a, const FaultDecision& b) {
  return a.drop_mid_stream == b.drop_mid_stream && a.stall == b.stall &&
         a.progress_fraction == b.progress_fraction;
}

TEST(FaultPlanTest, DecisionsArePureFunctionsOfKeys) {
  // Two independent plans over the same spec must agree request for
  // request — this is what makes faulty fleet runs bit-identical across
  // thread counts and repeat runs.
  FaultPlan a(mixed_spec());
  FaultPlan b(mixed_spec());
  for (int i = 0; i < 512; ++i) {
    EXPECT_TRUE(same_decision(a.next_request(), b.next_request())) << i;
  }
}

TEST(FaultPlanTest, StreamsDecorrelate) {
  FaultSpec spec = mixed_spec();
  FaultPlan a(spec);
  spec.stream = 6;
  FaultPlan b(spec);
  bool differed = false;
  for (int i = 0; i < 256 && !differed; ++i) {
    differed = !same_decision(a.next_request(), b.next_request());
  }
  EXPECT_TRUE(differed);
}

TEST(FaultPlanTest, RatesPartitionOneUniform) {
  FaultPlan plan(mixed_spec());
  const int n = 20'000;
  int drops = 0, stalls = 0;
  for (int i = 0; i < n; ++i) {
    const FaultDecision d = plan.next_request();
    // Drops and stalls are mutually exclusive by construction.
    EXPECT_FALSE(d.drop_mid_stream && d.stall);
    drops += d.drop_mid_stream;
    stalls += d.stall;
    EXPECT_GE(d.progress_fraction, 0.05);
    EXPECT_LE(d.progress_fraction, 0.95);
  }
  EXPECT_NEAR(drops / double(n), 0.3, 0.02);
  EXPECT_NEAR(stalls / double(n), 0.2, 0.02);
}

TEST(FaultPlanTest, OutageWindowsCoverTheConfiguredFraction) {
  FaultSpec spec;
  spec.outage_fraction = 0.25;
  FaultPlan plan(spec);
  FaultPlan twin(spec);
  int dark = 0;
  const int samples = 4 * 3600;  // four periods at 1 s resolution
  for (int s = 0; s < samples; ++s) {
    const TimePoint t = TimePoint{} + seconds(s);
    const bool d = plan.origin_dark(t);
    // Pure in (spec, now): every plan of the seed sees the same schedule.
    EXPECT_EQ(d, twin.origin_dark(t));
    dark += d;
  }
  EXPECT_NEAR(dark / double(samples), 0.25, 0.01);
}

/// Transport fixture with a live fault plan wired into the network.
class FaultTransportFixture : public ::testing::Test {
 protected:
  FaultTransportFixture() : net_(loop_) {
    HostSpec client;
    client.downlink = mbps(80);
    client.uplink = mbps(80);
    net_.add_host("client", client);
    net_.add_host("origin");
    net_.set_rtt("client", "origin", milliseconds(40));
    net_.host("origin").set_handler(
        [this](const http::Request&, auto respond) {
          ++handler_calls_;
          ServerReply reply;
          reply.response = http::Response::make(http::Status::Ok);
          reply.response.body = std::string(50'000, 'x');
          reply.response.finalize(loop_.now());
          respond(std::move(reply));
        });
  }

  void use_plan(const FaultSpec& spec) {
    plan_ = std::make_unique<FaultPlan>(spec);
    net_.set_fault_plan(plan_.get());
  }

  EventLoop loop_;
  Network net_;
  std::unique_ptr<FaultPlan> plan_;
  int handler_calls_ = 0;
};

TEST_F(FaultTransportFixture, MidStreamDropErrorsAndBreaksH1) {
  FaultSpec spec;
  spec.loss_rate = 1.0;
  use_plan(spec);
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  bool got_response = false, got_error = false;
  conn.send_request(
      http::Request::get("/", "origin"),
      [&](http::Response) { got_response = true; },
      [&] { got_error = true; });
  loop_.run();
  EXPECT_FALSE(got_response);
  EXPECT_TRUE(got_error);
  // H1 framing broke mid-message: the whole connection is unusable.
  EXPECT_TRUE(conn.broken());
  EXPECT_EQ(conn.requests_completed(), 0);
  // A fraction of the doomed response's bytes still crossed the wire.
  EXPECT_GT(conn.bytes_received(), 0u);
  EXPECT_LT(conn.bytes_received(), 50'000u);
}

TEST_F(FaultTransportFixture, MidStreamDropOnH2LosesOnlyTheStream) {
  FaultSpec spec;
  spec.loss_rate = 1.0;
  use_plan(spec);
  Connection conn(net_, "client", "origin", false, Protocol::H2);
  bool got_error = false;
  conn.send_request(
      http::Request::get("/", "origin"), [](http::Response) {},
      [&] { got_error = true; });
  loop_.run();
  EXPECT_TRUE(got_error);
  // RST_STREAM, not a connection teardown.
  EXPECT_FALSE(conn.broken());
}

TEST_F(FaultTransportFixture, StallDeliversNothingAndRaisesNoError) {
  FaultSpec spec;
  spec.stall_rate = 1.0;
  use_plan(spec);
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  bool got_response = false, got_error = false;
  conn.send_request(
      http::Request::get("/", "origin"),
      [&](http::Response) { got_response = true; },
      [&] { got_error = true; });
  loop_.run();  // drains — a stall schedules nothing further
  EXPECT_FALSE(got_response);
  EXPECT_FALSE(got_error);
  // The exchange is wedged in flight; only a client deadline recovers it.
  EXPECT_EQ(conn.pending(), 1u);
  EXPECT_FALSE(conn.broken());
}

TEST_F(FaultTransportFixture, DarkOriginBlackholesAtArrival) {
  FaultSpec spec;
  spec.outage_fraction = 1.0;  // dark for the whole period
  use_plan(spec);
  Connection conn(net_, "client", "origin", false, Protocol::H1);
  bool got_response = false, got_error = false;
  conn.send_request(
      http::Request::get("/", "origin"),
      [&](http::Response) { got_response = true; },
      [&] { got_error = true; });
  loop_.run();
  EXPECT_FALSE(got_response);
  EXPECT_FALSE(got_error);
  EXPECT_EQ(handler_calls_, 0);
  // The request is wedged in flight; only a client deadline recovers it.
  EXPECT_EQ(conn.pending(), 1u);
}

}  // namespace
}  // namespace catalyst::netsim
