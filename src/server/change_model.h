// Content-change processes for origin resources.
//
// The paper's motivation is statistical: many resources change rarely (so
// re-validation almost always answers 304), yet TTLs are set far shorter
// than real change intervals. Each resource gets a deterministic,
// pre-materialized change timeline; the resource's version (and therefore
// its content and ETag) at any simulated instant follows from it.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace catalyst::server {

class ChangeProcess {
 public:
  /// Content never changes (version 0 forever).
  static ChangeProcess never();

  /// Memoryless changes with the given mean interval, materialized over
  /// [0, horizon). Deterministic for a given rng state.
  static ChangeProcess poisson(Duration mean_interval, Duration horizon,
                               Rng& rng);

  /// Fixed-period changes starting at `phase`.
  static ChangeProcess periodic(Duration period, Duration phase,
                                Duration horizon);

  /// Number of changes in [0, t] — the content version at time t.
  std::uint64_t version_at(TimePoint t) const;

  /// Time of the last change at or before t (TimePoint{} if none).
  TimePoint last_change_at(TimePoint t) const;

  bool changes_in(TimePoint begin, TimePoint end) const {
    return version_at(end) != version_at(begin);
  }

  std::size_t total_changes() const { return change_times_.size(); }

 private:
  explicit ChangeProcess(std::vector<TimePoint> change_times)
      : change_times_(std::move(change_times)) {}

  std::vector<TimePoint> change_times_;  // sorted, strictly increasing
};

}  // namespace catalyst::server
