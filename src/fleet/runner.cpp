#include "fleet/runner.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace catalyst::fleet {

FleetRunner::FleetRunner(FleetParams params, std::uint64_t num_users,
                         int threads)
    : params_(std::move(params)),
      num_users_(num_users),
      threads_(std::max(threads, 1)) {
  if (params_.edge.enabled()) {
    // Edge mode: sharding follows the PoP partition, not user-count
    // geometry — shared cache state must never cross a worker boundary.
    shard_count_ = static_cast<std::size_t>(params_.edge.pops);
    return;
  }
  const std::uint64_t shard_size =
      std::max<std::uint64_t>(params_.shard_size, 1);
  // Ceiling division without `num_users_ + shard_size - 1`, which wraps
  // for a shard_size near the type's maximum.
  shard_count_ = static_cast<std::size_t>(num_users_ / shard_size +
                                          (num_users_ % shard_size != 0));
}

FleetReport FleetRunner::run() {
  const std::uint64_t shard_size =
      std::max<std::uint64_t>(params_.shard_size, 1);

  // Every task exists before any worker starts, so workers need no queue:
  // each claims the next unclaimed index until the vector runs out.
  std::vector<ShardTask> tasks(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    ShardTask& task = tasks[s];
    task.shard_index = s;
    if (params_.edge.enabled()) {
      // One task per PoP, each spanning every user id; the shard filters
      // to the users edge_pop_of maps to its PoP. Work partitioning is a
      // pure function of (seed, pops) — never of threads or shard_size.
      task.first_user = 0;
      task.user_count = num_users_;
      task.pop = static_cast<int>(s);
    } else {
      task.first_user = static_cast<std::uint64_t>(s) * shard_size;
      task.user_count = std::min(shard_size, num_users_ - task.first_user);
    }
  }
  std::atomic<std::size_t> next{0};
  // One catalog for the run: shards that run at the same time share the
  // sites they both serve. Nothing is generated until a shard asks.
  SiteCatalog catalog(params_.user_model);

  // Incremental canonical merge: shard reports fold into `merged` in
  // ascending shard index (== ascending user id) the moment the run
  // becomes the next expected index, exactly the order a single thread
  // would have accumulated samples in — but without holding one report
  // slot per shard for the whole run. Out-of-order completions wait in
  // `pending` (bounded by worker-count stragglers, not by shard count),
  // so resident report memory stays O(threads) instead of O(shards).
  std::mutex merge_mutex;
  FleetReport merged;
  std::map<std::size_t, FleetReport> pending;
  std::size_t next_merge = 0;

  auto worker = [&] {
    for (std::size_t s; (s = next.fetch_add(1)) < tasks.size();) {
      FleetReport report = Shard(params_, tasks[s], catalog).run();
      std::lock_guard<std::mutex> lock(merge_mutex);
      pending.emplace(s, std::move(report));
      while (!pending.empty() && pending.begin()->first == next_merge) {
        merged.merge(pending.begin()->second);
        pending.erase(pending.begin());
        ++next_merge;
      }
    }
  };

  const int pool = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(threads_), std::max<std::size_t>(
                                                shard_count_, 1)));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) workers.emplace_back(worker);
  for (auto& w : workers) w.join();

  return merged;
}

}  // namespace catalyst::fleet
