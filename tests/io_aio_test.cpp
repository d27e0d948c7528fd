// AioEngine unit tests: bounded queue depth, FIFO slot handoff, read
// merging, and — the property everything else leans on — seeded
// determinism: the completion sequence is a pure function of (seed,
// submission order).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "io/aio.h"
#include "netsim/event_loop.h"
#include "util/rng.h"

namespace catalyst::io {
namespace {

AioDeviceConfig no_jitter(int queue_depth = 8) {
  AioDeviceConfig cfg;
  cfg.queue_depth = queue_depth;
  cfg.jitter_sigma = 0.0;  // exact service times
  return cfg;
}

/// Runs `submit` against a fresh loop/engine and returns the completion
/// log: (tag, virtual completion time) in completion order.
using Log = std::vector<std::pair<std::string, Duration>>;
template <typename SubmitFn>
Log run_engine(const AioDeviceConfig& cfg, std::uint64_t seed,
               SubmitFn submit) {
  netsim::EventLoop loop;
  Rng rng(seed);
  AioStats stats;
  AioEngine engine(loop, cfg, rng, stats);
  Log log;
  submit(engine, [&log, &loop](std::string tag) {
    log.emplace_back(std::move(tag), loop.now() - TimePoint{});
  });
  loop.run();
  return log;
}

TEST(AioEngineTest, SameSeedSameSubmissionsSameCompletionSequence) {
  AioDeviceConfig cfg;  // jitter on: the interesting case
  auto submit = [](AioEngine& engine, auto note) {
    for (int i = 0; i < 32; ++i) {
      const std::string key = "key" + std::to_string(i % 7);
      engine.submit_read(key, 4096 + 512 * i,
                         [note, key]() { note("r:" + key); });
      if (i % 3 == 0) {
        engine.submit_write(8192, [note]() { note("w"); });
      }
    }
  };
  const Log a = run_engine(cfg, 42, submit);
  const Log b = run_engine(cfg, 42, submit);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical order AND identical virtual times

  // A different seed draws a different jitter stream: same ops, but the
  // timeline must not be byte-for-byte identical.
  const Log c = run_engine(cfg, 43, submit);
  EXPECT_NE(a, c);
}

TEST(AioEngineTest, QueueDepthBoundsInflightAndExcessWaits) {
  netsim::EventLoop loop;
  Rng rng(1);
  AioStats stats;
  AioEngine engine(loop, no_jitter(/*queue_depth=*/4), rng, stats);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    engine.submit_read("k" + std::to_string(i), 1024,
                       [&completed]() { ++completed; });
  }
  EXPECT_EQ(stats.peak_inflight, 4u);  // the device is full...
  EXPECT_EQ(stats.queue_waits, 6u);    // ...and the rest wait for it
  loop.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(stats.reads, 10u);
  EXPECT_EQ(stats.peak_inflight, 4u);  // draining never ran more than four
}

TEST(AioEngineTest, WaitingOpsStartInSubmissionOrder) {
  netsim::EventLoop loop;
  Rng rng(1);
  AioStats stats;
  // Depth 1 device: completions strictly serialize in submission order.
  AioEngine engine(loop, no_jitter(/*queue_depth=*/1), rng, stats);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    engine.submit_read("k" + std::to_string(i), 1024,
                       [&order, i]() { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(AioEngineTest, ReadsForSameKeyMergeIntoOneDeviceOp) {
  netsim::EventLoop loop;
  Rng rng(1);
  AioStats stats;
  AioEngine engine(loop, no_jitter(), rng, stats);
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    engine.submit_read("hot", 2048, [&completions]() { ++completions; });
  }
  engine.submit_read("cold", 2048, [&completions]() { ++completions; });
  loop.run();
  EXPECT_EQ(completions, 6);       // every caller hears back
  EXPECT_EQ(stats.reads, 2u);      // but the device read twice, not six times
  EXPECT_EQ(stats.merged_reads, 4u);
}

TEST(AioEngineTest, ReadAfterCompletionIsAFreshDeviceOp) {
  netsim::EventLoop loop;
  Rng rng(1);
  AioStats stats;
  AioEngine engine(loop, no_jitter(), rng, stats);
  engine.submit_read("hot", 1024, []() {});
  loop.run();
  // The first op retired; the same key must not merge into a ghost.
  engine.submit_read("hot", 1024, []() {});
  loop.run();
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.merged_reads, 0u);
}

TEST(AioEngineTest, TransferCostScalesServiceTimeWithBytes) {
  auto submit_of = [](ByteCount bytes) {
    return [bytes](AioEngine& engine, auto note) {
      engine.submit_read("k", bytes, [note]() { note("done"); });
    };
  };
  const Log small = run_engine(no_jitter(), 1, submit_of(KiB(4)));
  const Log large = run_engine(no_jitter(), 1, submit_of(MiB(4)));
  ASSERT_EQ(small.size(), 1u);
  ASSERT_EQ(large.size(), 1u);
  EXPECT_GT(large[0].second, small[0].second);
}

TEST(AioEngineTest, WritesAccountButNeverMerge) {
  netsim::EventLoop loop;
  Rng rng(1);
  AioStats stats;
  AioEngine engine(loop, no_jitter(), rng, stats);
  engine.submit_write(4096);
  engine.submit_write(4096);
  loop.run();
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.merged_reads, 0u);
}

}  // namespace
}  // namespace catalyst::io
