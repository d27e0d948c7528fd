// Fleet execution: a fixed worker pool draining a shard queue.
//
// Sharding is a pure function of (num_users, shard_size) — never of the
// thread count — and each shard's report lands in a slot indexed by shard
// id, merged in ascending id order after the workers join. Combined with
// per-user RNG keying (user_model) and shard-private state (shard), that
// makes the merged FleetReport bit-identical for any --threads value.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "fleet/shard.h"

namespace catalyst::fleet {

/// Mutex/condvar task queue the worker pool pulls ShardTasks from. All
/// tasks are enqueued before the workers start; close() lets idle workers
/// drain out once the queue empties.
class ShardQueue {
 public:
  void push(ShardTask task);
  void close();

  /// Blocks until a task is available or the queue is closed and empty;
  /// nullopt means "no more work, exit".
  std::optional<ShardTask> pop();

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<ShardTask> tasks_;  // drained FIFO; order is irrelevant
  std::size_t next_ = 0;
  bool closed_ = false;
};

/// Runs `num_users` user sessions across a pool of worker threads and
/// merges the per-shard reports canonically.
class FleetRunner {
 public:
  /// threads < 1 is clamped to 1. threads == 1 still goes through the
  /// pool (one worker), so the single- and multi-threaded paths are the
  /// same code.
  FleetRunner(FleetParams params, std::uint64_t num_users, int threads);

  /// Executes the whole fleet; safe to call once.
  FleetReport run();

  std::size_t shard_count() const { return shard_count_; }
  int threads() const { return threads_; }

 private:
  FleetParams params_;
  std::uint64_t num_users_;
  int threads_;
  std::size_t shard_count_;
};

}  // namespace catalyst::fleet
