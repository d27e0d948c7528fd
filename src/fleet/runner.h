// Fleet execution: a fixed worker pool claiming shards off a shared
// cursor.
//
// Sharding is a pure function of (num_users, shard_size) — never of the
// thread count — and each shard's report merges in ascending shard id.
// Combined with per-user RNG keying (user_model), shard-private mutable
// state and a shared site catalog whose content is a pure function of the
// catalog seed (shard), that makes the merged FleetReport bit-identical
// for any --threads value.
#pragma once

#include <cstdint>

#include "fleet/shard.h"

namespace catalyst::fleet {

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
