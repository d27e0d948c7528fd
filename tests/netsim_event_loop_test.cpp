#include "netsim/event_loop.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace catalyst::netsim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(milliseconds(20), [&] { order.push_back(2); });
  loop.schedule_after(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule_after(milliseconds(30), [&] { order.push_back(3); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), TimePoint{} + milliseconds(30));
}

TEST(EventLoopTest, EqualTimesRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(milliseconds(1), recurse);
  };
  loop.schedule_after(milliseconds(1), recurse);
  EXPECT_EQ(loop.run(), 5u);
  EXPECT_EQ(loop.now(), TimePoint{} + milliseconds(5));
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.schedule_after(milliseconds(10), [] {});
  loop.run();
  bool ran = false;
  loop.schedule_after(milliseconds(-5), [&] { ran = true; });
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), TimePoint{} + milliseconds(10));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_after(milliseconds(1), [&] { ran = true; });
  loop.cancel(id);
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_FALSE(ran);
  loop.cancel(id);       // double-cancel is a no-op
  loop.cancel(9999999);  // unknown id is a no-op
}

TEST(EventLoopTest, PendingCountsExcludeCancelled) {
  EventLoop loop;
  const EventId a = loop.schedule_after(milliseconds(1), [] {});
  loop.schedule_after(milliseconds(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  loop.run();
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, AdvanceToRequiresEmptyQueue) {
  EventLoop loop;
  loop.schedule_after(milliseconds(1), [] {});
  EXPECT_THROW(loop.advance_to(TimePoint{} + hours(1)), std::logic_error);
  loop.run();
  loop.advance_to(TimePoint{} + hours(1));
  EXPECT_EQ(loop.now(), TimePoint{} + hours(1));
  // Moving backwards is ignored.
  loop.advance_to(TimePoint{} + minutes(1));
  EXPECT_EQ(loop.now(), TimePoint{} + hours(1));
}

TEST(EventLoopTest, AdvanceToAllowedAfterCancellingAll) {
  EventLoop loop;
  const EventId id = loop.schedule_after(milliseconds(1), [] {});
  loop.cancel(id);
  loop.advance_to(TimePoint{} + seconds(1));  // must not throw
  EXPECT_EQ(loop.now(), TimePoint{} + seconds(1));
}

// Unbatched reference model: executes strictly one event at a time by
// scanning for the minimum (when, seq) pair — the pre-batching dispatch
// semantics. The batched EventLoop must produce exactly the same
// execution order for any workload, including same-timestamp events
// scheduled from inside callbacks and cancels of not-yet-run events.
class RefLoop {
 public:
  std::uint64_t schedule_after(Duration delay, std::function<void()> fn) {
    TimePoint when = now_ + delay;
    if (when < now_) when = now_;
    events_.push_back(Ev{when, seq_++, std::move(fn), false, false});
    return events_.size() - 1;
  }

  void cancel(std::uint64_t id) {
    if (id < events_.size()) events_[id].cancelled = true;
  }

  std::size_t run() {
    std::size_t executed = 0;
    for (;;) {
      std::size_t best = events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        const Ev& e = events_[i];
        if (e.cancelled || e.done) continue;
        if (best == events_.size() || e.when < events_[best].when ||
            (e.when == events_[best].when && e.seq < events_[best].seq)) {
          best = i;
        }
      }
      if (best == events_.size()) return executed;
      events_[best].done = true;
      now_ = events_[best].when;
      std::function<void()> fn = std::move(events_[best].fn);
      fn();
      ++executed;
    }
  }

 private:
  struct Ev {
    TimePoint when;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled;
    bool done;
  };
  std::vector<Ev> events_;
  std::uint64_t seq_ = 0;
  TimePoint now_{};
};

// Randomized workload: events log their logical id, sometimes schedule a
// child at the same timestamp (delay 0) or slightly later, and sometimes
// cancel a previously scheduled event. All decisions are drawn from a
// seeded Rng inside the callbacks, so any divergence in execution order
// between the two loops also diverges the draw stream and is caught.
template <class Loop>
std::vector<int> drive_scenario(Loop& loop, std::uint64_t seed) {
  // Everything is a stack local that outlives loop.run(), so the
  // scheduled closures capture by reference — no ownership cycles.
  std::vector<int> log;
  std::vector<std::uint64_t> handles;
  Rng rng(seed);
  int next_id = 0;
  std::function<void(int)> body;
  body = [&](int id) {
    log.push_back(id);
    if (log.size() >= 500) return;
    const int roll = static_cast<int>(rng.uniform_int(0, 9));
    if (roll < 6) {  // schedule a child; 0..2 => same virtual timestamp
      const int child = next_id++;
      const Duration delay = milliseconds(roll < 3 ? 0 : roll - 2);
      handles.push_back(
          loop.schedule_after(delay, [&body, child] { body(child); }));
    }
    if (roll >= 8 && !handles.empty()) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(handles.size()) - 1));
      loop.cancel(handles[victim]);
    }
  };
  for (int i = 0; i < 40; ++i) {
    const int id = next_id++;
    handles.push_back(loop.schedule_after(
        milliseconds(rng.uniform_int(0, 4)), [&body, id] { body(id); }));
  }
  loop.run();
  return log;
}

TEST(EventLoopTest, BatchedDispatchMatchesUnbatchedReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EventLoop batched;
    RefLoop reference;
    const std::vector<int> got = drive_scenario(batched, seed);
    const std::vector<int> want = drive_scenario(reference, seed);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(EventLoopTest, IntraBatchCancelSkipsSameTimestampEvent) {
  EventLoop loop;
  std::vector<int> order;
  EventId doomed = 0;
  loop.schedule_after(milliseconds(5), [&] {
    order.push_back(1);
    loop.cancel(doomed);  // same timestamp, already in the ready batch
  });
  doomed = loop.schedule_after(milliseconds(5), [&] { order.push_back(2); });
  loop.schedule_after(milliseconds(5), [&] { order.push_back(3); });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoopTest, ZeroDelayFromCallbackRunsAfterCurrentBatch) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(milliseconds(5), [&] {
    order.push_back(1);
    // Due now: must run after the rest of this batch, not before.
    loop.schedule_after(milliseconds(0), [&] { order.push_back(3); });
  });
  loop.schedule_after(milliseconds(5), [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), TimePoint{} + milliseconds(5));
}

TEST(EventLoopTest, StartTimeConstructor) {
  EventLoop loop(TimePoint{} + days(3));
  EXPECT_EQ(loop.now(), TimePoint{} + days(3));
  TimePoint observed{};
  loop.schedule_after(seconds(1), [&] { observed = loop.now(); });
  loop.run();
  EXPECT_EQ(observed, TimePoint{} + days(3) + seconds(1));
}

}  // namespace
}  // namespace catalyst::netsim
