#include "server/change_model.h"

#include <algorithm>
#include <stdexcept>

namespace catalyst::server {

ChangeProcess ChangeProcess::never() { return ChangeProcess({}); }

ChangeProcess ChangeProcess::poisson(Duration mean_interval,
                                     Duration horizon, Rng& rng) {
  if (mean_interval <= Duration::zero()) {
    throw std::invalid_argument("ChangeProcess: mean interval must be > 0");
  }
  std::vector<TimePoint> times;
  const double rate = 1.0 / to_seconds(mean_interval);
  double t = 0.0;
  const double end = to_seconds(horizon);
  while (true) {
    t += rng.exponential(rate);
    if (t >= end) break;
    times.push_back(TimePoint{seconds_f(t)});
  }
  return ChangeProcess(std::move(times));
}

ChangeProcess ChangeProcess::periodic(Duration period, Duration phase,
                                      Duration horizon) {
  if (period <= Duration::zero()) {
    throw std::invalid_argument("ChangeProcess: period must be > 0");
  }
  std::vector<TimePoint> times;
  for (Duration t = phase; t < horizon; t += period) {
    if (t > Duration::zero()) times.push_back(TimePoint{t});
  }
  return ChangeProcess(std::move(times));
}

std::uint64_t ChangeProcess::version_at(TimePoint t) const {
  const auto it = std::upper_bound(change_times_.begin(),
                                   change_times_.end(), t);
  return static_cast<std::uint64_t>(it - change_times_.begin());
}

TimePoint ChangeProcess::last_change_at(TimePoint t) const {
  const auto it = std::upper_bound(change_times_.begin(),
                                   change_times_.end(), t);
  if (it == change_times_.begin()) return TimePoint{};
  return *(it - 1);
}

}  // namespace catalyst::server
