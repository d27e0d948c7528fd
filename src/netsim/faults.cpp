#include "netsim/faults.h"

#include <cmath>

#include "util/rng.h"

namespace catalyst::netsim {

namespace {
// Stream ids for the plan-level draws, disjoint from per-request ordinals
// (which fork off `spec.stream` instead).
constexpr std::uint64_t kOutagePhaseStream = 0x07a6'e000'0001ull;

/// Outage windows repeat with this period; `outage_fraction` of each one
/// is dark.
constexpr Duration kOutagePeriod = hours(1);
}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec) : spec_(spec) {
  // The outage window's position inside the period is a per-seed constant:
  // outages are an origin-side event, shared by every stream of the seed.
  outage_phase_seconds_ =
      Rng(spec_.fault_seed).fork(kOutagePhaseStream).next_double() *
      to_seconds(kOutagePeriod);
}

FaultDecision FaultPlan::next_request() {
  FaultDecision d;
  if (!spec_.any()) {
    ++ordinal_;
    return d;
  }
  // Fresh generator per request, keyed by (seed, stream, ordinal): the
  // decision for request i never depends on how many draws earlier
  // requests consumed, so replays stay aligned even if the fault mix
  // changes between runs.
  Rng rng = Rng(spec_.fault_seed).fork(spec_.stream).fork(ordinal_++);

  // One uniform partitions the mutually exclusive faults.
  const double x = rng.next_double();
  if (x < spec_.loss_rate) {
    d.drop_mid_stream = true;
  } else if (x < spec_.loss_rate + spec_.stall_rate) {
    d.stall = true;
  }
  // How far a cut transfer gets before dying. Drawn unconditionally so
  // the draw count per request is fixed.
  d.progress_fraction = rng.uniform(0.05, 0.95);
  return d;
}

bool FaultPlan::origin_dark(TimePoint now) const {
  if (spec_.outage_fraction <= 0.0) return false;
  const double period = to_seconds(kOutagePeriod);
  const double dark = spec_.outage_fraction * period;
  double pos = std::fmod(to_seconds(now.since_epoch()) + outage_phase_seconds_,
                         period);
  if (pos < 0.0) pos += period;
  return pos < dark;
}

}  // namespace catalyst::netsim
