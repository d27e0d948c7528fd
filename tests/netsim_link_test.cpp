#include "netsim/link.h"

#include <gtest/gtest.h>

namespace catalyst::netsim {
namespace {

TEST(LinkTest, SingleTransferTakesClosedFormTime) {
  EventLoop loop;
  Link link(loop, "l", mbps(8));  // 1 MB/s
  TimePoint done{};
  link.start_transfer(500'000, [&] { done = loop.now(); });
  loop.run();
  EXPECT_EQ(done, TimePoint{} + milliseconds(500));
  EXPECT_EQ(link.bytes_delivered(), 500'000u);
}

TEST(LinkTest, ZeroByteTransferCompletesImmediately) {
  EventLoop loop;
  Link link(loop, "l", mbps(10));
  TimePoint done = TimePoint{} + seconds(1);
  link.start_transfer(0, [&] { done = loop.now(); });
  loop.run();
  EXPECT_EQ(done, TimePoint{});
}

TEST(LinkTest, TwoEqualFlowsShareCapacity) {
  EventLoop loop;
  Link link(loop, "l", mbps(8));  // 1 MB/s
  TimePoint done_a{}, done_b{};
  // Two 500 KB flows started together: each sees 0.5 MB/s, both finish at
  // t = 1 s (processor sharing), not 0.5 s.
  link.start_transfer(500'000, [&] { done_a = loop.now(); });
  link.start_transfer(500'000, [&] { done_b = loop.now(); });
  loop.run();
  EXPECT_EQ(done_a, TimePoint{} + seconds(1));
  EXPECT_EQ(done_b, TimePoint{} + seconds(1));
}

TEST(LinkTest, UnequalFlowsClosedForm) {
  EventLoop loop;
  Link link(loop, "l", mbps(8));  // 1 MB/s
  TimePoint done_small{}, done_big{};
  // 250 KB and 750 KB started together. Shared phase: both at 0.5 MB/s
  // until the small one finishes at t=0.5s (having moved 250 KB each).
  // The big one then has 500 KB left at full rate: done at t=1.0s.
  link.start_transfer(250'000, [&] { done_small = loop.now(); });
  link.start_transfer(750'000, [&] { done_big = loop.now(); });
  loop.run();
  EXPECT_EQ(done_small, TimePoint{} + milliseconds(500));
  EXPECT_EQ(done_big, TimePoint{} + seconds(1));
}

TEST(LinkTest, LateArrivalSlowsExistingFlow) {
  EventLoop loop;
  Link link(loop, "l", mbps(8));  // 1 MB/s
  TimePoint done_first{}, done_second{};
  // Flow A: 1 MB at t=0. Flow B: 600 KB at t=0.5s.
  // A alone for 0.5s -> 500 KB left. Then shared 0.5 MB/s each.
  // Both have 500/600... A: 500KB left, B: 600KB. A finishes after
  // another 1.0s (t=1.5s, having 500KB at 0.5MB/s). At t=1.5 B has
  // 600-500=100 KB left at full rate -> t=1.6s.
  link.start_transfer(1'000'000, [&] { done_first = loop.now(); });
  loop.schedule_after(milliseconds(500), [&] {
    link.start_transfer(600'000, [&] { done_second = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(done_first, TimePoint{} + milliseconds(1500));
  EXPECT_EQ(done_second, TimePoint{} + milliseconds(1600));
}

TEST(LinkTest, ManyFlowsConserveCapacity) {
  EventLoop loop;
  Link link(loop, "l", mbps(80));  // 10 MB/s
  const int n = 20;
  const ByteCount each = 100'000;
  int completed = 0;
  TimePoint last{};
  for (int i = 0; i < n; ++i) {
    link.start_transfer(each, [&] {
      ++completed;
      last = loop.now();
    });
  }
  loop.run();
  EXPECT_EQ(completed, n);
  // Total 2 MB at 10 MB/s = 200 ms regardless of sharing.
  EXPECT_EQ(last, TimePoint{} + milliseconds(200));
  EXPECT_EQ(link.bytes_delivered(), each * n);
  // Busy-time integral: the link was busy exactly 200 ms.
  EXPECT_NEAR(link.busy_seconds(), 0.2, 1e-9);
}

TEST(LinkTest, SequentialTransfersDoNotOverlap) {
  EventLoop loop;
  Link link(loop, "l", mbps(8));
  TimePoint done2{};
  link.start_transfer(100'000, [&] {
    link.start_transfer(100'000, [&] { done2 = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(done2, TimePoint{} + milliseconds(200));
}

TEST(LinkTest, RejectsNonPositiveCapacity) {
  EventLoop loop;
  EXPECT_THROW(Link(loop, "l", bps(0)), std::invalid_argument);
  EXPECT_THROW(Link(loop, "l", bps(-5)), std::invalid_argument);
}

TEST(LinkTest, TinyResidualsTerminate) {
  // Regression: fractional residual bytes used to reschedule zero-delay
  // completions forever.
  EventLoop loop;
  Link link(loop, "l", mbps(60));
  int completed = 0;
  for (int i = 0; i < 7; ++i) {
    link.start_transfer(333 + static_cast<ByteCount>(i) * 7919,
                        [&] { ++completed; });
  }
  const std::size_t events = loop.run();
  EXPECT_EQ(completed, 7);
  EXPECT_LT(events, 100u);  // termination, not spinning
}

}  // namespace
}  // namespace catalyst::netsim
